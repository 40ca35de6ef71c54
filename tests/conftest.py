"""Let the CLI subprocesses that the tests start import the package under test,
also when it is found only through pytest's ``pythonpath`` setting."""

import os
from pathlib import Path

import noetherlab

_PACKAGE_ROOT = str(Path(noetherlab.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
