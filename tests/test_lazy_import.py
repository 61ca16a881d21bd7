"""numpy loads only inside classification_grid(), which returns an ndarray.

Without numpy, which the ``grid`` extra installs, everything else still runs.

The kernel builds grids in plain bytes, so no command loads numpy: the one
import of numpy anywhere in the package, function bodies included, is in
classification_grid, and a child with numpy blocked runs every other public
function and all eight commands.  The package resolves every public name on
first use, so its import loads no submodule, a command loads only the
submodules it runs, and ``json`` only under ``--json``.  No module imports
``typing`` or ``__future__``.  One child per command, on a bare interpreter,
checks both what the command adds and that nothing in the process loads
``typing``, ``__future__``, ``dataclasses``, ``contextlib``, ``argparse``,
``gettext``, ``locale`` or ``textwrap``: the command line reads its argv
itself.

Each check runs in a fresh interpreter, because the test process may have
loaded any of these long before.  Nothing here asserts a timing.  The bytes
each command writes without numpy are the golden battery's, which CI
replays with numpy uninstalled.
"""

import ast
import json
import subprocess
import sys

import pytest

from conftest import SRC, child_env, needs_numpy
from nimtriples.cli import main

PACKAGE = SRC / "nimtriples"


def fresh(code, *args, cwd=None, read=json.loads, flags=()):
    """``read`` of what ``code`` printed, run in a new interpreter that imports from src."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=cwd,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return read(proc.stdout)


@needs_numpy
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


@needs_numpy
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


# The modules that only some commands load.
_OPTIONAL = {"json"} | {
    f"nimtriples.{name}" for name in ("triangles", "advisor", "mex", "render", "_kernel", "_census")
}

# The child runs under -S, since site's hooks may load typing first, and
# imports re and sys first, as the console script's wrapper does.  It prints
# what the import and the command added, what they gave, and which watched
# modules are loaded at the end.  It prints with repr, not json, and swaps
# sys.stdout itself, not with contextlib, because it watches both.
_MODULES_CHILD = """
import io, re, sys
before = set(sys.modules)
from nimtriples.cli import main
sys.stdout = io.StringIO()
code = main(sys.argv[1:])
out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
watched = {"typing", "__future__", "dataclasses", "contextlib"}
watched |= {"argparse", "gettext", "locale", "textwrap"}
added, loaded = sorted(set(sys.modules) - before), sorted(watched & set(sys.modules))
print(repr([added, code, out, loaded]))
"""


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    ("argv", "loads"),
    [
        (["sum", "5", "3"], set()),
        (["classify", "5", "1", "2"], {"triangles"}),
        (["reorder", "1", "2", "7"], {"triangles"}),
        (["move", "5", "1", "2"], {"advisor"}),
        (["move", "2", "2", "3", "--all"], {"advisor"}),
        (["mex", "2", "3"], {"mex"}),
        (["table", "4"], {"mex"}),
        (["table", "4", "--verify"], {"mex"}),
        (["census", "3"], {"_census"}),
        (["census", "3", "--check-closed-form"], {"_census", "_kernel"}),
        (["render", "2", "5", "--out", "r.pgm"], {"render", "triangles", "_kernel"}),
        (["census", "8"], {"_census"}),
        (["render", "13", "0", "--out", "capped.pgm"], {"render", "triangles", "_kernel"}),
    ],
    ids=[
        "sum", "classify", "reorder", "move", "move-all", "mex", "table", "table-verify",
        "census", "census-check", "render", "census-capped", "render-capped",
    ],
)
def test_command_loads_only_its_own_modules(tmp_path, capsys, monkeypatch, argv, loads, as_json):
    argv = ["--json", *argv] if as_json else argv
    added, code, out, watched = fresh(
        _MODULES_CHILD, *argv, cwd=tmp_path, read=ast.literal_eval, flags=["-S"]
    )
    # json loads only to format a result, and a capped run (exit 3) formats none
    formats = {"json"} if as_json and code == 0 else set()
    expected = {f"nimtriples.{name}" for name in loads} | formats
    assert set(added) & _OPTIONAL == expected
    assert watched == []
    # the same bytes as a run in this process, where every module is loaded
    monkeypatch.chdir(tmp_path)
    assert (code, out) == (main(argv), capsys.readouterr().out)


# The home submodule of each public name, where ``from nimtriples import name`` finds it.
_HOMES = {
    "_kernel": [],
    "advisor": ["Move", "advise_move", "winning_moves"],
    "_census": ["CensusReport", "census", "census_closed_form_check"],
    "limits": ["CapExceeded", "MEX_ENUMERATION_CAP"],
    "mex": [
        "exclusion_set", "greedy_minimal_table", "mex_oracle", "table_to_text",
        "verify_table_equals_xor",
    ],
    "natural": ["bit", "nim_sum", "parse_natural", "require_natural"],
    "render": ["GRAY_LEVELS", "classification_grid", "render_pgm"],
    "triangles": [
        "CASE_TABLE", "TriangleClass", "TriangleClassification", "VertexStatus",
        "case_table_lookup", "classify_triangle", "classify_vertex", "reorder_dominant",
    ],
}

# Checks of the package's names after ``{first}``, the import that runs first.
_NAMES_CHILD = """
{first}
import importlib, sys, types
import nimtriples
wrong = [
    name
    for home, names in {homes!r}.items()
    for name in names
    if getattr(nimtriples, name) is not getattr(sys.modules["nimtriples." + home], name)
]
submodules = [
    getattr(nimtriples, home) is importlib.import_module("nimtriples." + home)
    for home in {homes!r}
]
star = {{}}
exec("from nimtriples import *", star)
print(repr([
    wrong,
    all(submodules),
    nimtriples.census is sys.modules["nimtriples._census"].census,
    isinstance(nimtriples.census, types.FunctionType),
    sorted(set(star) - {{"__builtins__"}}),
    set(nimtriples.__all__) <= set(dir(nimtriples)),
    "__all__" in dir(nimtriples),
]))
"""


@pytest.mark.parametrize(
    "first",
    [
        "",
        "import nimtriples._census",
        "from nimtriples._census import CensusReport",
        "from nimtriples._census import census",
        "import nimtriples.mex",
        "from nimtriples.mex import mex_oracle",
        "import nimtriples.triangles",
        "from nimtriples.render import render_pgm",
        "import nimtriples._kernel",
        "from nimtriples import advisor",
        "import nimtriples.limits",
        "import nimtriples.natural",
        "import nimtriples.cli",
    ],
)
def test_every_public_name_is_its_home_module_object(first):
    public = sorted(name for names in _HOMES.values() for name in names)
    assert len(public) == 28
    code = _NAMES_CHILD.format(first=first, homes=_HOMES)
    assert fresh(code, read=ast.literal_eval) == [[], True, True, True, public, True, True]


def test_submodules_and_unknown_names_after_a_plain_import():
    code = """
import nimtriples
got = [nimtriples.mex.mex_oracle(2, 3), nimtriples._kernel.__name__]
got.append(hasattr(nimtriples, "nope"))
try:
    nimtriples.nope
except AttributeError as exc:
    got.append(str(exc))
print(repr(got))
"""
    assert fresh(code, read=ast.literal_eval) == [
        1, "nimtriples._kernel", False, "module 'nimtriples' has no attribute 'nope'"
    ]


def test_import_loads_no_submodule():
    code = """
import sys
before = set(sys.modules)
import nimtriples
print(repr(sorted(set(sys.modules) - before)))
"""
    assert fresh(code, read=ast.literal_eval) == ["nimtriples"]


def _places(node, where, found):
    """``where``, dotted with the name of each function or class around it, of each
    node under ``node`` that ``found`` holds for."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _places(child, f"{where}.{child.name}", found)
        elif found(child):
            yield where
        else:
            yield from _places(child, where, found)


def _package_places(found):
    """Every place in the package, at module level or in any function, that ``found`` holds for."""
    return sorted(
        place
        for path in PACKAGE.glob("*.py")
        for place in _places(ast.parse(path.read_text()), path.stem, found)
    )


def _loads_numpy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return node.module.split(".")[0] == "numpy"
    return False


def _for_annotations_only(node):
    """Whether ``node`` imports ``typing`` or ``__future__``, or names ``TYPE_CHECKING``."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] in {"typing", "__future__"} for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and node.module.split(".")[0] in {"typing", "__future__"}
    return isinstance(node, ast.Name) and node.id == "TYPE_CHECKING"


def test_no_module_imports_typing_or_future():
    # the records are collections.namedtuple, and every annotation evaluates as written
    assert _package_places(_for_annotations_only) == []


def test_only_classification_grid_imports_numpy():
    # on every path of every command
    assert _package_places(_loads_numpy) == ["render.classification_grid"]


_ENVIRON = {"environ", "environb", "getenv", "getenvb"}


def _reads_environment(node):
    """Whether ``node`` names ``os.environ`` or ``os.getenv``, as an attribute or an import."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(alias.name in _ENVIRON for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr in _ENVIRON


def test_only_the_command_line_reads_the_environment():
    # the library's only inputs are its arguments; the CLI reads NIM_TRIPLE_MAX_K in one helper
    assert _package_places(_reads_environment) == ["cli._max_k"]
