import os
import sys
import tracemalloc

import pytest

from conftest import WIDE, block_kernel, needs_numpy, run_child
from nimtriples import (
    MEX_ENUMERATION_CAP,
    CapExceeded,
    _kernel,
    census,
    census_closed_form_check,
    classification_grid,
    greedy_minimal_table,
    mex_oracle,
    render_pgm,
)
from nimtriples.cli import main
from nimtriples.limits import CENSUS_CHECK_MAX_K, DEFAULT_RENDER_MAX_K, TABLE_MAX_N

# each capped call: the name its cap messages give it, the operand's name there, the wording of
# a value below the least, the least value and the default cap; that the operand is a natural
# at all is held by the table of every natural operand in test_natural.py
CAPPED = {
    census: ("census", "k", "bit width", 1, 7),
    classification_grid: ("render", "k", "bit width", 0, 12),
    render_pgm: ("render", "k", "bit width", 0, 12),
    census_closed_form_check: ("census check", "k", "bit width", 1, 10),
    greedy_minimal_table: ("table", "n", "table size", 1, 1024),
}
TAKES_MAX_K = [census, classification_grid, render_pgm]
RUN_TO_THE_END = [census, pytest.param(classification_grid, marks=needs_numpy), render_pgm]


def _call(call, k, **max_k):
    """``call`` at ``k``, with c = 0 for a grid or a PGM, and a grid as its bytes."""
    if call in (classification_grid, render_pgm):
        return bytes(call(k, 0, **max_k))
    return call(k, **max_k)


def _refused(monkeypatch, call, k, error=ValueError, **max_k) -> str:
    """The message of the ``error`` that ``call`` raises at ``k``, with the kernel blocked."""
    block_kernel(monkeypatch)
    with pytest.raises(error) as exc:
        _call(call, k, **max_k)
    return str(exc.value)


@pytest.mark.parametrize("call", [*RUN_TO_THE_END, census_closed_form_check, greedy_minimal_table])
def test_least_width_is_accepted_and_the_one_below_refused(monkeypatch, call):
    _, _, wording, least, _ = CAPPED[call]
    _call(call, least)
    if least:  # a value below 0 is not a natural: test_natural.py's table refuses -1
        message = _refused(monkeypatch, call, least - 1)
        assert message == f"{wording} must be >= {least}, got {least - 1}"


@pytest.mark.parametrize("call", CAPPED)
def test_default_cap_refuses_the_width_past_it(monkeypatch, call):
    # the cap comes first: a table or a sweep this large could never be built
    name, operand, _, _, cap = CAPPED[call]
    for past, named in ((cap + 1, cap + 1), (WIDE, "<16000-bit number>")):
        message = _refused(monkeypatch, call, past, CapExceeded)
        assert message == f"{name} {operand}={named} exceeds cap {cap}"


@pytest.mark.parametrize("call", RUN_TO_THE_END)
def test_max_k_refuses_the_width_past_it(monkeypatch, call):
    assert _call(call, 2, max_k=2) == _call(call, 2, max_k=16)
    message = _refused(monkeypatch, call, 3, CapExceeded, max_k=2)
    assert message == f"{CAPPED[call][0]} k=3 exceeds cap 2"


LONG_RAW = "9" * 5000


@pytest.mark.parametrize(
    "max_k", [-1, 17, True, 2.5, "7", 1 << 40, pytest.param(WIDE, id="16000-bit")]
)
@pytest.mark.parametrize("call", TAKES_MAX_K)
def test_max_k_outside_the_ceiling_is_refused_before_any_work(monkeypatch, call, max_k):
    message = _refused(monkeypatch, call, 1, max_k=max_k)
    got = "<16000-bit number>" if max_k is WIDE else repr(max_k)
    assert message == f"max_k must be an integer in 0..16, got {got}"


def test_max_k_range_ends_are_accepted():
    assert census(3, max_k=16).k == 3
    assert render_pgm(0, 0, max_k=0) == b"P5\n1 1\n255\n\xff"
    with pytest.raises(CapExceeded, match=r"^census k=1 exceeds cap 0$"):
        census(1, max_k=0)


@needs_numpy
def test_classification_grid_takes_its_cap_from_max_k_alone():
    assert classification_grid(3, 5, max_k=16).shape == (8, 8)
    assert classification_grid(0, 0, max_k=0).shape == (1, 1)


# "+7", "1_0" and an Arabic-Indic seven are outside parse_natural's grammar, though int() takes them
@pytest.mark.parametrize(
    "raw",
    ["-1", "17", "banana", "", "2.5", "True", "+7", "1_0", "\u0667"]
    + [pytest.param(LONG_RAW, id="5000-nines")],
)
@pytest.mark.parametrize(
    "argv", [["census", "1"], ["render", "0", "0", "--out", "x.pgm"]], ids=["census", "render"]
)
def test_environment_cap_keeps_its_message(monkeypatch, capsys, tmp_path, argv, raw):
    try:
        os.fsencode(raw)
    except UnicodeEncodeError:
        # a locale such as C cannot encode the Arabic-Indic seven, but the environment holds
        # any bytes: a shell passes its UTF-8 on, and os.environ decodes them as it can
        monkeypatch.setitem(os.environb, b"NIM_TRIPLE_MAX_K", raw.encode("utf-8"))
    else:
        monkeypatch.setenv("NIM_TRIPLE_MAX_K", raw)
    monkeypatch.chdir(tmp_path)
    block_kernel(monkeypatch)
    assert main(argv) == 2
    held = os.environ["NIM_TRIPLE_MAX_K"]
    got = "'99999999999999999999'...(5000 chars)" if raw is LONG_RAW else repr(held)
    refused = f"error: NIM_TRIPLE_MAX_K must be an integer in 0..16, got {got}\n"
    assert capsys.readouterr() == ("", refused)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("raw", ["0x8", "0b1000", " 8 "])
def test_environment_cap_takes_the_argument_grammar(monkeypatch, raw):
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", raw)
    assert main(["census", "8"]) == 0


@pytest.mark.parametrize(
    "k,named", [(CENSUS_CHECK_MAX_K + 1, "11"), (16, "16"), (WIDE, "<16000-bit number>")],
    ids=["11", "16", "16000-bit"],
)
def test_census_check_cap_holds_whatever_max_k_says(monkeypatch, k, named):
    # 8**k triples: at k=16 the sweep would run for days, so it is refused before it starts
    block_kernel(monkeypatch)
    message = rf"^census check k={named} exceeds cap {CENSUS_CHECK_MAX_K}$"
    with pytest.raises(CapExceeded, match=message):
        census_closed_form_check(k)
    if k <= 16:
        assert census(k, max_k=16).k == k  # the counted census is O(k) and keeps the wider cap


def test_census_check_takes_no_max_k():
    with pytest.raises(TypeError):
        census_closed_form_check(3, max_k=2)


def test_census_check_runs_at_its_cap(monkeypatch):
    # the sweep itself takes half a second at k=10; the counted census stands in for it
    monkeypatch.setattr(_kernel, "count", lambda k: census(k, max_k=16).counts)
    assert CENSUS_CHECK_MAX_K == 10
    assert census_closed_form_check(CENSUS_CHECK_MAX_K)


def _traced_peak(call, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "a,b", [(MEX_ENUMERATION_CAP, 0), (MEX_ENUMERATION_CAP // 2, MEX_ENUMERATION_CAP // 2)]
)
def test_mex_at_its_cap_stays_linear_in_memory(a, b):
    # the marks and the block of ones, written in place: at most 2 bytes per entry
    assert _traced_peak(mex_oracle, a, b) < 2.5 * MEX_ENUMERATION_CAP


@pytest.mark.parametrize(
    "c", [0, 5, (1 << DEFAULT_RENDER_MAX_K) - 1, 1 << DEFAULT_RENDER_MAX_K, 1 << 70]
)
def test_render_at_its_default_cap_holds_little_beside_its_output(c):
    k = DEFAULT_RENDER_MAX_K
    if c < 1 << k:
        # the 4**k-byte PGM, and pieces no longer than a row, about 2**(k + 1) of them
        assert _traced_peak(render_pgm, k, c) < 1.125 * 4**k
    else:
        # every cell loose: the output is one fill, with no rows and no second copy beside it
        assert _traced_peak(render_pgm, k, c) < 1.005 * 4**k


@needs_numpy  # and conftest has loaded numpy, so tracing sees no import
@pytest.mark.parametrize("c", [1 << DEFAULT_RENDER_MAX_K, 1 << 70])
def test_all_loose_grid_at_its_default_cap_is_one_fill(c):
    k = DEFAULT_RENDER_MAX_K
    assert _traced_peak(classification_grid, k, c) < 1.005 * 4**k


_TABLE_RSS = """
import resource, sys
from nimtriples import greedy_minimal_table
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
greedy_minimal_table(int(sys.argv[1]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_table_at_its_cap_stays_under_12_bytes_a_cell():
    # tracemalloc slows this fill about 24 times, so a child reports its peak resident size;
    # the rows hold n * n pointers, 8 bytes a cell and an eighth more spare, and the cells
    # share 2n - 1 int objects
    proc = run_child("-c", _TABLE_RSS, str(TABLE_MAX_N), check=True)
    assert int(proc.stdout) * 1024 < 12 * TABLE_MAX_N**2
