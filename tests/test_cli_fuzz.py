"""Argv fuzzing of the command line: every argv ends in exit 0, 1, 2 or 3.

A usage error or a cap (exit 2 or 3) leaves stdout empty; a cap writes
exactly one ``error:`` line to stderr.

Tokens come from the eight command names, the real flags, the removed
``--timing``, numbers in every accepted spelling (negative, past 64 bits and
past the CLI's decimal digit limit too) and junk.  Widths are capped
at 4 and small operands stay at 64 or below, so each argv runs in about a
millisecond; the wide operands only ever reach a cap or the output limit.
"""

import contextlib
import io
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nimtriples.cli import main

# the operands each command takes; move takes any number from one up
ARITY = dict(sum=2, classify=3, reorder=3, mex=2, table=1, move=3, census=1, render=2)
COMMANDS = list(ARITY)
FLAGS = ["--json", "--all", "--verify", "--check-closed-form", "-h", "--timing"]


def _spelled(values, spellings=(str, hex, bin)):
    return st.builds(lambda value, spell: spell(value), values, st.sampled_from(spellings))


small = _spelled(st.integers(0, 64))
numbers = st.one_of(
    small,
    _spelled(st.integers(-(2**70), -1)),
    _spelled(st.integers(2**64, 2**200)),
    # past 4300 decimal digits: str() refuses these, so they are spelled without it
    _spelled(st.integers(2**15000, 2**15001), (hex, bin)),
    st.integers(0, 10**6).map(lambda tail: "9" * 4300 + str(tail)),
)
tokens = st.one_of(
    st.sampled_from(COMMANDS),
    st.sampled_from(FLAGS),
    st.just(["--out", "out.pgm"]),
    numbers,
    st.text(max_size=6),
)
options = st.one_of(st.sampled_from(FLAGS), st.just(["--out", "out.pgm"]))


def _shaped(command):
    out = ["--out", "out.pgm"] if command == "render" else []
    return st.tuples(
        st.lists(st.just("--json"), max_size=1),
        st.lists(st.one_of(small, numbers), min_size=ARITY[command], max_size=ARITY[command]),
        st.lists(options, max_size=2),
    ).map(lambda parts: [*parts[0], command, *parts[1], *parts[2], *out])


argvs = st.one_of(
    st.lists(tokens, max_size=6),
    # shaped like a real call, so that many draws get past the parser
    st.sampled_from(COMMANDS).flatmap(_shaped),
)


def _flat(argv):
    return [piece for token in argv for piece in (token if isinstance(token, list) else [token])]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # abbreviated options such as "--o" may name a file: keep every write here
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(argv=argvs)
def test_every_argv_exits_0_to_3(workdir, argv):
    argv = _flat(argv)
    here = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    os.chdir(workdir)
    try:
        with mock.patch.dict(os.environ, {"NIM_TRIPLE_MAX_K": "4"}):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
    finally:
        os.chdir(here)
    assert code in {0, 1, 2, 3}, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in {2, 3}:
        assert out.getvalue() == "" and err.getvalue(), (argv, code)
    if code == 3:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
