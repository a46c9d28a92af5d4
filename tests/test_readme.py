"""The README's fenced Python examples run as doctests."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # doctest.testfile would read each closing fence as expected output, so
    # only the inside of each ```python block is parsed
    text = README.read_text(encoding="utf-8")
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    report: list[str] = []
    for m in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        lineno = text.count("\n", 0, m.start(1))
        test = parser.get_doctest(m.group(1), {}, f"README.md:{lineno + 1}", str(README), lineno)
        runner.run(test, out=report.append)
    assert runner.tries and not runner.failures, "".join(report)
