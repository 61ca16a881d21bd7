"""The README's stated facts against the files that hold them.

A count, a cap or a command that the README copies from elsewhere is read
from its source here, so the prose cannot drift from it: the battery's
size, ``tools/golden.py``'s default number of draws, the cap ledger's
values, the numpy-free test command that CI runs, and the criteria of the
acceptance block.  Each verdict line of that block is checked against the
suite's own output by ``report`` in ``tests/test_acceptance.py``.
"""

import ast
import json
import re

from conftest import README, ROOT, acceptance_block, golden
from nimtriples import limits


def _stated(pattern: str) -> int:
    """The one number the README states where ``pattern`` has its group."""
    (number,) = re.findall(pattern, README)
    return int(number)


def test_battery_count_is_the_battery_size():
    battery = json.loads(golden.GOLDEN.read_text(encoding="ascii"))
    assert _stated(r"`tests/golden_cli\.json` records every byte of (\d+) argvs") == len(battery)


def test_seeded_argv_count_is_the_draws_default():
    tree = ast.parse((ROOT / "tools" / "golden.py").read_text(encoding="utf-8"))
    (default,) = [
        keyword.value.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        if [arg.value for arg in node.args] == ["--draws"]
        for keyword in node.keywords
        if keyword.arg == "default"
    ]
    assert _stated(r"replays (\d+) seeded argvs") == default


def _ledger_value(text: str) -> int:
    """A ledger value: an integer, or a power written as ``2^20``."""
    base, _, exponent = text.strip("` ").partition("^")
    return int(base) ** int(exponent or 1)


def test_cap_ledger_values_are_the_limits():
    rows = re.findall(r"^\| `([A-Z_]+)` \| ([^|]+) \|", README, re.MULTILINE)
    caps = {n: v for n, v in vars(limits).items() if n.isupper() and type(v) is int}
    assert [name for name, _ in rows] == list(caps)
    assert {name: _ledger_value(value) for name, value in rows} == caps


def test_numpy_free_command_is_the_ci_step():
    (block,) = re.findall(r"```sh\n(python -m pytest [^`]*--ignore[^`]*)```", README)
    workflow = ROOT / ".github" / "workflows" / "tests.yml"
    lines = workflow.read_text(encoding="utf-8").splitlines()
    (start,) = [i for i, line in enumerate(lines) if "pytest" in line and "--ignore" in line]
    indent = len(lines[start]) - len(lines[start].lstrip())
    step = []  # a folded ">-" scalar: its lines at one indent, joined by spaces
    for line in lines[start:]:
        if len(line) - len(line.lstrip()) != indent:
            break
        step.append(line)
    assert block.replace("\\\n", " ").split() == " ".join(step).split()


def test_acceptance_block_has_one_line_per_criterion():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    calls = sorted(
        (node.lineno, node.col_offset, node.args[0].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "report"
    )
    names = [line.removeprefix("acceptance ").partition(":")[0] for line in acceptance_block()]
    assert names == list(dict.fromkeys(name for *_, name in calls))
