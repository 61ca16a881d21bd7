"""The command line's exit contract, on every battery entry and on seeded argvs.

Every run exits 0, 1, 2 or 3 and shows no traceback.  Exit 0 writes nothing
to stderr.  Any other exit writes nothing to stdout, and to stderr one
``error:`` line, or for a usage error (exit 2) a usage block of two or three
lines whose last starts ``nimtriples: error:`` or ``nimtriples <command>: error:``.
Every entry of ``tests/golden_cli.json`` is held to it, so ``tools/golden.py
--write`` cannot record a traceback as golden.

The seeded argvs come from ``_draw`` in ``tools/golden.py``, the generator of
the battery's fuzz section, under a seed of their own: the eight command
names, the real flags, the removed ``--timing``, numbers in every accepted
spelling (negative, past 64 bits and past the CLI's decimal digit limit too)
and junk, as loose tokens or shaped like a real call.  Lists of arbitrary
text are a loop of their own.  Each distinct argv runs once through ``record``,
as a battery entry does, with ``NIM_TRIPLE_MAX_K`` at 4, so widths are capped
at 4; small operands stay at 64 or below, so each argv runs in about a
millisecond, and the wide operands only ever reach a cap or the output limit.
"""

import random

import pytest

from conftest import GOLDEN_ENTRIES, golden

SEED = 34
DRAWS = 300
_USAGE_ERRORS = ("nimtriples: error: ", *(f"nimtriples {c}: error: " for c in golden.COMMANDS))


def assert_contract(entry):
    """``entry``, a battery entry as ``golden.record`` builds it, keeps the exit contract."""
    code, out, err = entry["exit"], entry.get("stdout"), entry["stderr"]
    assert code in {0, 1, 2, 3} and "Traceback" not in err, entry
    if code == 0:
        assert err == "", entry
        return
    # a stdout past golden.LONG characters is recorded by its length, not as "stdout"
    assert out == "", entry
    lines = err.split("\n")
    assert lines.pop() == "", entry
    if code == 2 and len(lines) in {2, 3}:
        assert lines[0].startswith("usage: ") and lines[-1].startswith(_USAGE_ERRORS), entry
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), entry


def test_every_battery_entry_keeps_the_contract():
    for entry in GOLDEN_ENTRIES:
        assert_contract(entry)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # abbreviated options such as "--o" may name a file: record runs each argv here
    return str(tmp_path_factory.mktemp("fuzz"))


def test_every_argv_exits_0_to_3(workdir):
    rng = random.Random(SEED)
    for argv, max_k in golden.distinct((golden._draw(rng), "4") for _ in range(DRAWS)):
        assert_contract(golden.record(argv, max_k, workdir))


# the code points of a text argv, a third from each: _draw's junk, below and above the surrogates
_POINTS = ([*map(ord, golden._TEXT)], range(0xD800), range(0xE000, 0x110000))


def _text(rng):
    return "".join(chr(rng.choice(rng.choice(_POINTS))) for _ in range(rng.randint(0, 6)))


def test_every_text_argv_exits_0_to_3(workdir):
    rng = random.Random(SEED)
    drawn = (([_text(rng) for _ in range(rng.randint(0, 6))], "4") for _ in range(DRAWS))
    for argv, max_k in golden.distinct(drawn):
        assert_contract(golden.record(argv, max_k, workdir))
