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

import json
import sys

import pytest

from conftest import golden

BATTERY = golden.battery()
EXPECTED = json.loads(golden.GOLDEN.read_text(encoding="ascii"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("golden"))


def test_the_battery_has_one_entry_per_argv():
    assert len(EXPECTED) == len(BATTERY)


@pytest.mark.parametrize("index", range(len(EXPECTED)))
def test_argv_gives_its_golden_bytes(monkeypatch, workdir, index):
    argv, max_k = BATTERY[index]
    saved = sys.get_int_max_str_digits()
    for columns, digits in ((None, saved), ("30", 640), ("200", 0)):
        if columns is not None:
            monkeypatch.setenv("COLUMNS", columns)
        sys.set_int_max_str_digits(digits)
        try:
            assert golden.record(argv, max_k, workdir) == EXPECTED[index], (columns, digits)
            assert sys.get_int_max_str_digits() == digits
        finally:
            sys.set_int_max_str_digits(saved)
