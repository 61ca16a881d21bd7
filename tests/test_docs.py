"""The README's stated facts against the files that hold them.

A count, a cap or a command that the README copies from elsewhere is read
from its source here, so the prose cannot drift from it: the battery's
size and its corner draws, the number of argvs ``tools/golden.py --against``
replays, the cap ledger's values and the commands that reach them, each
command-line example against its battery entry, the Library block's stated
values, run here, and the criteria of the acceptance block.
Each verdict line of that block is checked against the suite's own output by
``report`` in ``tests/test_acceptance.py``.
"""

import ast
import re
import shlex

import pytest

from conftest import GOLDEN_BY_ARGV, GOLDEN_ENTRIES, README, ROOT, acceptance_block, golden
from nimtriples import limits


def _stated(pattern: str) -> int:
    """The one number the README states where ``pattern`` has its group."""
    (number,) = re.findall(pattern, README)
    return int(number)


def test_battery_count_is_the_battery_size():
    stated = _stated(r"`tests/golden_cli\.json` records every byte of (\d+) argvs")
    assert stated == len(GOLDEN_ENTRIES)


def test_corner_count_is_the_corner_draws(monkeypatch):
    ((kept, drawn),) = re.findall(r"the (\d+) kept of (\d+) draws from those corners", README)
    assert int(drawn) == golden.CORNER_DRAWS
    # the corner draws the battery keeps are the entries it loses without them
    monkeypatch.setattr(golden, "CORNER_DRAWS", 0)
    assert int(kept) == len(GOLDEN_ENTRIES) - len(golden.battery())


def test_seeded_argv_count_is_the_draws_default():
    assert _stated(r"replays (\d+) seeded argvs") == len(golden.draws())
    assert _stated(r"the distinct ones of (\d+) draws") == golden.AGAINST_DRAWS


def _ledger_value(text: str) -> int:
    """A ledger value: an integer, or a power written as ``2^20``."""
    base, _, exponent = text.strip("` ").partition("^")
    return int(base) ** int(exponent or 1)


# the ledger's rows: each cap's name, its value, and its worst accepted input
LEDGER = re.findall(r"^\| `([A-Z_]+)` \| ([^|]+) \| `([^`]+)` \|", README, re.MULTILINE)


def test_cap_ledger_values_are_the_limits():
    caps = {n: v for n, v in vars(limits).items() if n.isupper() and type(v) is int}
    assert [name for name, *_ in LEDGER] == list(caps)
    assert {name: _ledger_value(value) for name, value, _ in LEDGER} == caps


# the form of each row's worst accepted input; every group is its cap, but mex's two add up to it
WORST_INPUTS = {
    "MEX_ENUMERATION_CAP": r"mex (\d+) (\d+)",
    "TABLE_MAX_N": r"table (\d+)",
    "DEFAULT_CENSUS_MAX_K": r"census (\d+) --check-closed-form",
    "DEFAULT_RENDER_MAX_K": r"render (\d+) \d+ --out \S+",
    "MAX_K_CEILING": r"NIM_TRIPLE_MAX_K=(\d+) render (\d+) \d+ --out \S+",
    "CENSUS_CHECK_MAX_K": r"NIM_TRIPLE_MAX_K=(\d+) census (\d+) --check-closed-form",
    "DECIMAL_DIGITS": r"sum <(\d+) nines> \d+",
}


def test_cap_ledger_commands_reach_their_caps():
    for name, _, command in LEDGER:
        match = re.fullmatch(WORST_INPUTS[name], command)
        assert match, command
        named = [int(group) for group in match.groups()]
        if name == "MEX_ENUMERATION_CAP":
            named = [sum(named)]
        assert set(named) == {getattr(limits, name)}, command


def test_acceptance_block_has_one_line_per_criterion():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    calls = sorted(
        (node.lineno, node.col_offset, node.args[0].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "report"
    )
    names = [line.removeprefix("acceptance ").partition(":")[0] for line in acceptance_block()]
    assert names == list(dict.fromkeys(name for *_, name in calls))


def _readme_examples():
    block = README.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ nimtriples "):
            examples.append((shlex.split(line, comments=True)[2:], []))
        else:
            examples[-1][1].append(line)
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_lists_every_command():
    commands = {argv[0] for argv, _ in README_EXAMPLES}
    assert commands == {"sum", "classify", "reorder", "mex", "table", "move", "census", "render"}


@pytest.mark.parametrize(
    "argv,expected", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_example(argv, expected):
    entry = GOLDEN_BY_ARGV[tuple(argv)]
    assert (entry["exit"], entry["stdout"].splitlines(), entry["stderr"]) == (0, expected, "")


# the Library block: its imports, then one call a line whose comment states, up to any
# colon, a Python expression that the call equals
_LIBRARY = README.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
_LIBRARY_IMPORTS, _, _LIBRARY_CALLS = _LIBRARY.partition("\n\n")
LIBRARY_EXAMPLES = [line.split("  # ", 1) for line in _LIBRARY_CALLS.splitlines()]


@pytest.mark.parametrize(
    "call,comment", LIBRARY_EXAMPLES, ids=[call.strip() for call, _ in LIBRARY_EXAMPLES]
)
def test_library_example(call, comment):
    names = {}
    exec(_LIBRARY_IMPORTS, names)
    assert eval(call, names) == eval(comment.partition(":")[0], names)
