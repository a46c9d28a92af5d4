"""The README's fenced Python examples run as doctests."""

from __future__ import annotations

import doctest
import functools
import importlib
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


def test_library_overview_names_real_attributes():
    # every backticked name in a `galab.<module>` row of the table resolves on that
    # module; the galab.cli row is skipped, since its `galab` is the command
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(galab\.\w+)` \| (.*) \|$", section, re.M)
    assert len(rows) == 6
    missing = []
    for module_name, contents in rows:
        if module_name == "galab.cli":
            continue
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", contents):
            try:
                functools.reduce(getattr, name.split("."), module)
            except AttributeError:
                missing.append(f"{module_name}.{name}")
    assert not missing
