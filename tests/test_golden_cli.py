"""The command line's bytes, argv by argv, against the committed battery.

``tools/golden.py`` draws the argvs and runs each through ``main`` in
process; ``tests/golden_cli.json`` holds what each gave: exit code, stdout,
stderr and the SHA-256 of each file written.  A change that alters the bytes
on purpose regenerates the file with ``tools/golden.py --write``.
"""

import json

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
def test_argv_gives_its_golden_bytes(workdir, index):
    argv, max_k = BATTERY[index]
    assert golden.record(argv, max_k, workdir) == EXPECTED[index]
