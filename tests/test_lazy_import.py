"""numpy loads only inside classification_grid(), which returns an ndarray.

The kernel builds grids in plain bytes, so every command starts and runs
without numpy, and ``import nimtriples`` leaves ``dataclasses`` unloaded.

Each check runs in a fresh interpreter, because the test process has loaded
numpy long before.  Nothing here asserts a timing.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "nimtriples"

_CHILD = """
import contextlib, io, json, sys
import nimtriples
after_import = "numpy" in sys.modules
from nimtriples.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([after_import, code, out.getvalue(), "numpy" in sys.modules]))
"""


def fresh(code, *args, cwd=None):
    """JSON printed by ``code`` run in a new interpreter that imports from src."""
    env = {k: v for k, v in os.environ.items() if k != "NIM_TRIPLE_MAX_K"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_child(argv, tmp_path):
    return fresh(_CHILD, json.dumps(argv), cwd=tmp_path)


@pytest.mark.parametrize(
    ("argv", "code"),
    [
        (["sum", "5", "3"], 0),
        (["classify", "5", "1", "2"], 0),
        (["reorder", "1", "2", "7"], 0),
        (["move", "5", "1", "2"], 0),
        (["move", "2", "2", "3", "--all"], 0),
        (["mex", "2", "3"], 0),
        (["table", "4"], 0),
        (["census", "8"], 3),
        (["render", "13", "0", "--out", "capped.pgm"], 3),
    ],
    ids=[
        "sum", "classify", "reorder", "move", "move-all", "mex", "table",
        "census-capped", "render-capped",
    ],
)
def test_command_runs_without_numpy(tmp_path, argv, code):
    after_import, got_code, _, after_main = run_child(argv, tmp_path)
    assert (after_import, got_code, after_main) == (False, code, False)


def test_census_and_render_keep_their_output_without_numpy(tmp_path):
    census = run_child(["census", "3"], tmp_path)
    assert census == [False, 0, "k=3 flat=64 tight=112 loose=336\n", False]
    check = run_child(["census", "3", "--check-closed-form"], tmp_path)
    assert check == [False, 0, "k=3 flat=64 tight=112 loose=336 closed-form=ok\n", False]
    render = run_child(["render", "4", "5", "--out", "r.pgm"], tmp_path)
    assert render == [False, 0, "out=r.pgm width=16 height=16\n", False]
    from nimtriples import render_pgm

    assert (tmp_path / "r.pgm").read_bytes() == render_pgm(4, 5)


def test_classification_grid_loads_numpy():
    code = """
import json, sys
from nimtriples import classification_grid
before = "numpy" in sys.modules
grid = classification_grid(3, 5)
print(json.dumps([before, "numpy" in sys.modules, type(grid).__name__, grid.shape]))
"""
    assert fresh(code) == [False, True, "ndarray", [8, 8]]


def test_import_leaves_dataclasses_unloaded():
    code = "import json, sys, nimtriples.cli; print(json.dumps('dataclasses' in sys.modules))"
    assert fresh(code) is False


def _runs_at_import(body):
    """Statements of a module body that run when it is imported.

    Function and class bodies run later; an ``if TYPE_CHECKING:`` block never.
    """
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _runs_at_import(node.orelse)
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _runs_at_import(getattr(node, field, []))


def _loads_numpy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return node.module.split(".")[0] == "numpy"
    return False


def test_no_module_imports_numpy_at_module_level():
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(_loads_numpy(node) for node in _runs_at_import(ast.parse(path.read_text()).body))
    )
    assert importers == []
