"""Child interpreters started by the tests import hypint from src/ too,
so a plain `pytest` in a checkout needs no install."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + _paths)
