"""Keep test runs from writing bytecode caches into the source tree.

A checkout with ``__pycache__`` directories imports faster and with a
different memory profile than a fresh one, which skews benchmark runs made
from it afterwards.  The CLI subprocesses started by the tests inherit
``os.environ``, so the variable covers them too.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")
