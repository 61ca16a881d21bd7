"""numpy loads only inside classification_grid(), which returns an ndarray.

Without numpy, which the ``grid`` extra installs, everything else still runs.

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


# Every public function and all eight commands, run in a child that may
# block numpy; it prints what it called, what they gave, and the grid errors
# with the peak memory traced during each grid call.
_PUBLIC_CALLS = """
import contextlib, io, json, sys, tracemalloc, types
import nimtriples as nt
from nimtriples.cli import main
calls = dict(
    advise_move=lambda: nt.advise_move([5, 1, 2]),
    bit=lambda: nt.bit(5, 2),
    case_table_lookup=lambda: nt.case_table_lookup(1, 0, 0),
    census=lambda: nt.census(3),
    census_closed_form_check=lambda: nt.census_closed_form_check(3),
    classify_triangle=lambda: nt.classify_triangle(5, 1, 2),
    classify_vertex=lambda: nt.classify_vertex(5, 1, 2),
    closed_form_counts=lambda: nt.closed_form_counts(3),
    compare=lambda: nt.compare(5, 3),
    discriminant_index=lambda: nt.discriminant_index(5, 1, 2),
    exclusion_set=lambda: sorted(nt.exclusion_set(2, 3)),
    greedy_minimal_table=lambda: nt.greedy_minimal_table(4),
    mex_oracle=lambda: nt.mex_oracle(2, 3),
    nim_sum=lambda: nt.nim_sum(5, 3),
    parse_natural=lambda: nt.parse_natural("0x1f"),
    render_pgm=lambda: nt.render_pgm(2, 5),
    reorder_dominant=lambda: nt.reorder_dominant(1, 2, 7),
    require_natural=lambda: nt.require_natural(7),
    table_to_text=lambda: nt.table_to_text([[0, 1], [1, 0]]),
    verify_table_equals_xor=lambda: nt.verify_table_equals_xor([[0, 1], [1, 0]]),
    winning_moves=lambda: nt.winning_moves([2, 2, 3]),
)
public = [n for n in nt.__all__ if isinstance(getattr(nt, n), types.FunctionType)]
values = {name: repr(call()) for name, call in calls.items()}
commands = []
for argv in (["sum", "5", "3"], ["classify", "5", "1", "2"], ["reorder", "1", "2", "7"],
             ["mex", "2", "3"], ["table", "4", "--verify"], ["move", "2", "2", "3", "--all"],
             ["census", "3", "--check-closed-form"], ["render", "3", "5", "--out", "r.pgm"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        commands.append([main(argv), out.getvalue()])
grid_errors, grid_peaks = [], []
for k, c in ((3, 5), (12, 0)):
    tracemalloc.start()
    try:
        nt.classification_grid(k, c)
        grid_errors.append(None)
    except ImportError as exc:
        grid_errors.append(str(exc))
    grid_peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
print(json.dumps([sorted(public), sorted(calls), values, commands, grid_errors, grid_peaks]))
"""


def test_everything_but_classification_grid_runs_without_numpy(tmp_path):
    blocked, loaded = tmp_path / "blocked", tmp_path / "loaded"
    blocked.mkdir()
    loaded.mkdir()
    public, called, values, commands, grid_errors, grid_peaks = fresh(
        'import sys; sys.modules["numpy"] = None' + _PUBLIC_CALLS, cwd=blocked
    )
    assert sorted(set(public) - {"classification_grid"}) == called
    assert [code for code, _ in commands] == [0] * 8
    assert all("nimtriples[grid]" in error for error in grid_errors)
    # the k=12 grid is 16 MiB once joined; without numpy it never is
    assert grid_peaks[1] < 16 << 20
    with_numpy = fresh(_PUBLIC_CALLS, cwd=loaded)
    assert with_numpy[2:5] == [values, commands, [None, None]]
    assert (blocked / "r.pgm").read_bytes() == (loaded / "r.pgm").read_bytes()


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
