"""numpy loads only inside classification_grid(), which returns an ndarray.

Without numpy, which the ``grid`` extra installs, everything else still runs.

The kernel builds grids in plain bytes, so no command loads numpy: an ``ast``
walk finds the one import of numpy anywhere in the package, function bodies
included and ``__import__`` and ``importlib.import_module`` of a constant name
counted, in classification_grid.  What no walk can see runs in a child with
numpy blocked: that call refuses, naming the extra, before it builds the grid.
The same walk finds the one read of the environment, in ``cli._max_k``, and
the only calls of it, by census and render, and the only places that build a
``CapExceeded``: the one check of every capped natural, the mex sum cap and
the CLI's decimal output limit.

The package resolves every public name on first use, so its import loads no
submodule, a command loads only the submodules it runs, ``json`` only under
``--json`` and ``signal`` only for ``render``.  No module imports ``typing``
or ``__future__``.  One child per command, on a bare interpreter, checks both
what the command adds and that nothing in the process loads ``typing``,
``__future__``, ``dataclasses``, ``contextlib``, ``argparse``, ``gettext``,
``locale`` or ``textwrap``: the command line reads its argv itself.

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

from conftest import SRC, child_env
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


# With numpy blocked, each grid call's message and the peak memory traced during it.
_REFUSED_GRIDS = """
import json, sys, tracemalloc
sys.modules["numpy"] = None
from nimtriples import classification_grid
refusals = []
for k, c in ((3, 5), (12, 0)):
    tracemalloc.start()
    try:
        classification_grid(k, c)
    except ImportError as exc:
        refusals.append([str(exc), tracemalloc.get_traced_memory()[1]])
    tracemalloc.stop()
print(json.dumps(refusals))
"""


def test_classification_grid_without_numpy_refuses_before_it_builds():
    # what test_only_classification_grid_imports_numpy cannot see: the refusal names the
    # extra, and it comes before the k=12 grid, 16 MiB once joined, is built
    refusals = fresh(_REFUSED_GRIDS)
    message = "classification_grid needs numpy: install 'nimtriples[grid]'"
    assert [text for text, _ in refusals] == [message, message]
    assert all(peak < 1 << 20 for _, peak in refusals)


# The modules that only some commands load.
_OPTIONAL = {"json", "signal"} | {
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
    # json loads only to format a result, and a capped run (exit 3) formats none; signal
    # loads only for render, which handles SIGTERM while it writes
    formats = {"json"} if as_json and code == 0 else set()
    handles = {"signal"} if "render" in argv else set()
    expected = {f"nimtriples.{name}" for name in loads} | formats | handles
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
    """Whether ``node`` imports numpy: by a statement, or by a call of ``__import__`` or
    ``importlib.import_module`` with a constant name."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
        called = getattr(node.func, "id", getattr(node.func, "attr", None))
        names = [node.args[0].value] if called in {"__import__", "import_module"} else []
    else:
        names = []
    return any(str(name).split(".")[0] == "numpy" for name in names)


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


def _names_max_k(node):
    """Whether ``node`` names ``_max_k``, as a name, an attribute or an import."""
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "_max_k" for alias in node.names)
    return getattr(node, "id", getattr(node, "attr", None)) == "_max_k"


def test_only_the_command_line_reads_the_environment():
    # the library's only inputs are its arguments; the CLI reads NIM_TRIPLE_MAX_K in one helper,
    # and naming that helper is the one way a library call could reach it: only census and
    # render call it
    assert _package_places(_reads_environment) == ["cli._max_k"]
    assert _package_places(_names_max_k) == ["cli._run_census", "cli._run_render"]


def _builds_cap_exceeded(node):
    """Whether ``node`` calls ``CapExceeded``, by its name or as an attribute."""
    return isinstance(node, ast.Call) and "CapExceeded" in {
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    }


def test_only_the_cap_checks_build_cap_exceeded():
    # every capped natural is refused by limits.checked; the mex sum cap and the decimal output
    # limit keep messages of their own
    assert _package_places(_builds_cap_exceeded) == [
        "cli._format", "limits.checked", "mex._checked_operands"
    ]
