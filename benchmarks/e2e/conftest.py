"""Make the program and the harness modules importable under pytest.

``run.py`` does this for itself; pytest (root ``pytest.ini`` adds
``--doctest-modules``) imports every module of this directory on its own.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
