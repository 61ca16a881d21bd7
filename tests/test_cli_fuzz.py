"""Argv fuzzing of the command line: every argv ends in exit 0, 1, 2 or 3.

A usage error or a cap (exit 2 or 3) leaves stdout empty; a cap writes
exactly one ``error:`` line to stderr.

The argvs come from ``_draw`` in ``tools/golden.py``, the generator of the
golden battery's fuzz section, here driven by a random that Hypothesis
controls and shrinks: the eight command names, the real flags, the removed
``--timing``, numbers in every accepted spelling (negative, past 64 bits and
past the CLI's decimal digit limit too) and junk, as loose tokens or shaped
like a real call.  Each argv runs through ``record`` of ``tools/golden.py``,
as a battery entry does, with ``NIM_TRIPLE_MAX_K`` at 4, so widths are capped
at 4; small operands stay at 64 or below, so each argv runs in about a
millisecond, and the wide operands only ever reach a cap or the output
limit.  Lists of arbitrary text, past the few characters of ``_draw``'s
junk, are a test of their own: as a second branch of one strategy they took
about three quarters of the examples.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import golden


@pytest.fixture(scope="module", autouse=True)
def _unlimited_int_strings():
    # Hypothesis formats a failing example's choices with str() before it shrinks,
    # and _draw's wide operands pass the default limit of 4300 digits; main sets
    # and restores its own limit, and a function-scoped fixture fails a health check
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # abbreviated options such as "--o" may name a file: record runs each argv here
    return str(tmp_path_factory.mktemp("fuzz"))


def _exits_0_to_3(workdir, argv):
    entry = golden.record(argv, "4", workdir)
    code, out, err = entry["exit"], entry.get("stdout"), entry["stderr"]
    assert code in {0, 1, 2, 3}, (argv, code, err)
    assert "Traceback" not in err
    if code in {2, 3}:
        # a stdout past golden.LONG characters is recorded by its length, not as "stdout"
        assert out == "" and err, (argv, code)
    if code == 3:
        assert err.count("\n") == 1, (argv, err)
        assert err.startswith("error: "), (argv, err)


@settings(max_examples=150, deadline=None)
@given(argv=st.randoms().map(golden._draw))
def test_every_argv_exits_0_to_3(workdir, argv):
    _exits_0_to_3(workdir, argv)


@settings(max_examples=150, deadline=None)
@given(argv=st.lists(st.text(max_size=6), max_size=6))
def test_every_text_argv_exits_0_to_3(workdir, argv):
    _exits_0_to_3(workdir, argv)
