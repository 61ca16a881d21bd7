"""What the test modules share: the environment a test runs in, and the golden battery.

``NIM_TRIPLE_MAX_K`` is removed for every test, so a ``main`` run in process
caps census and render at their defaults whatever the shell exports; a test
that needs the variable sets it itself.  ``child_env`` is the one environment
of a child interpreter, and ``golden`` is ``tools/golden.py``, loaded once.
"""

import importlib.util
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(autouse=True)
def _default_caps(monkeypatch):
    monkeypatch.delenv("NIM_TRIPLE_MAX_K", raising=False)


def child_env(**changes):
    """This process's environment for a child interpreter that imports the package from src.

    src comes first on ``PYTHONPATH``, and no bytecode is written; each
    keyword sets a variable, or removes it when its value is None.
    """
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", **changes}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return {name: value for name, value in env.items() if value is not None}
