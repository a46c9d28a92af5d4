"""The package's declared metadata holds for its source."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_source_parses_at_the_declared_python_floor():
    # a regex, not tomllib: tomllib is new in Python 3.11, above the floor itself
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups())
    sources = sorted((ROOT / "src" / "galab").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(major, minor))
