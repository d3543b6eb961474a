"""Commands that tests start import the package from ``src``, as the tests
themselves do through ``pythonpath`` in ``pyproject.toml``, so the suite runs
from a clean checkout with neither an installed package nor ``PYTHONPATH``."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
