"""The command line's bytes, argv by argv, against the committed battery.

``tools/golden.py`` draws the argvs and runs each through ``main`` in
process; ``tests/golden_cli.json`` holds what each gave: exit code, stdout,
stderr and the SHA-256 of each file written.  A change that alters the bytes
on purpose regenerates the file with ``tools/golden.py --write``.
"""

import argparse
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

BATTERY = golden.battery()
EXPECTED = json.loads(golden.GOLDEN.read_text(encoding="ascii"))

# Python 3.10 to 3.12 refuse a -h glued to other letters, as in "-hx", with
# exit 2; 3.13 runs the help first and exits 0.  "-h=" and "-h-" exit 2 on
# all of them, so the pattern leaves out an empty or "-" explicit argument.
_HELP_GLUED = re.compile(r"argument -h/--help: ignored explicit argument '[^'-]")
_HELP_GLUED_REASON = (
    "FOUND: on Python 3.13 argparse prints help for a -h glued to other letters"
    " and exits 0, where 3.10 to 3.12 exit 2 with 'ignored explicit argument'"
)


def _runs_a_command_after_dashes():
    """Whether this argparse removes only the first "--", and so runs a command after it.

    3.10.13 to 3.13.0 remove every "--" and refuse the one before the command
    as an invalid choice, as the battery records; 3.13.13 runs the command.
    """
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_subparsers(dest="command").add_parser("run")
    try:
        return parser.parse_args(["--", "run"]).command == "run"
    except argparse.ArgumentError:
        return False


def _case(index, expected):
    marks = ()
    if sys.version_info >= (3, 13) and _HELP_GLUED.search(expected["stderr"]):
        marks = pytest.mark.xfail(strict=True, reason=_HELP_GLUED_REASON)
    if expected["argv"] == ["--", "sum", "1", "2"] and _runs_a_command_after_dashes():
        expected = {**expected, "exit": 0, "stdout": "3\n", "stderr": ""}
    return pytest.param(index, expected, marks=marks, id=str(index))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("golden"))


def test_the_battery_has_one_entry_per_argv():
    assert len(EXPECTED) == len(BATTERY)


@pytest.mark.parametrize(("index", "expected"), [_case(*pair) for pair in enumerate(EXPECTED)])
def test_argv_gives_its_golden_bytes(workdir, index, expected):
    argv, max_k = BATTERY[index]
    assert golden.record(argv, max_k, workdir) == expected
