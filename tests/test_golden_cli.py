"""The command line's bytes, argv by argv, against the committed battery.

``tools/golden.py`` draws the argvs and runs each through ``main`` in
process; ``tests/golden_cli.json`` holds what each gave: exit code, stdout,
stderr and the SHA-256 of each file written.  A change that alters the bytes
on purpose regenerates the file with ``tools/golden.py --write``.

Each argv runs three times: as the shell leaves it, under a narrow
``COLUMNS`` with an interpreter decimal limit of 640, and under a wide one
with no limit.  The bytes depend on argv and ``NIM_TRIPLE_MAX_K`` alone, so
all three must give its entry, and each run must leave the caller's decimal
limit as it found it.
"""

import sys

import pytest

from conftest import GOLDEN_ENTRIES, golden, run_child

BATTERY = golden.battery()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("golden"))


def test_the_battery_has_one_entry_per_argv():
    assert len(GOLDEN_ENTRIES) == len(BATTERY)


@pytest.mark.parametrize("index", range(len(GOLDEN_ENTRIES)))
def test_argv_gives_its_golden_bytes(monkeypatch, workdir, index):
    argv, max_k = BATTERY[index]
    saved = sys.get_int_max_str_digits()
    for columns, digits in ((None, saved), ("30", 640), ("200", 0)):
        if columns is not None:
            monkeypatch.setenv("COLUMNS", columns)
        sys.set_int_max_str_digits(digits)
        try:
            assert golden.record(argv, max_k, workdir) == GOLDEN_ENTRIES[index], (columns, digits)
            assert sys.get_int_max_str_digits() == digits
        finally:
            sys.set_int_max_str_digits(saved)


def test_against_a_tree_without_the_package_replays_nothing(capsys, monkeypatch, tmp_path):
    # the child's import would fall through to this checkout's package, so TREE is refused
    monkeypatch.setattr(golden, "_replay", lambda tree: pytest.fail(f"replayed {tree}"))
    monkeypatch.setattr(sys, "argv", ["golden.py", "--against", str(tmp_path)])
    assert golden.main() == 2
    assert capsys.readouterr() == ("", f"{tmp_path} has no src/nimtriples package to replay\n")
    # and a child given that src stops at its import, before its first draw
    src = str(tmp_path / "src")
    proc = run_child(golden.__file__, "--replay", src)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(f"{src} holds no nimtriples: ")
