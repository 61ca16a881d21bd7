import subprocess
import sys
import tracemalloc

import pytest

from conftest import child_env
from nimtriples import (
    MEX_ENUMERATION_CAP,
    CapExceeded,
    _kernel,
    census,
    census_closed_form_check,
    classification_grid,
    mex_oracle,
    render_pgm,
)
from nimtriples.cli import main
from nimtriples.limits import CENSUS_CHECK_MAX_K, DEFAULT_RENDER_MAX_K, TABLE_MAX_N

# each width-checked call: the name its cap messages give it, its least width and its default cap
WIDTH_CHECKED = {
    census: ("census", 1, 7),
    classification_grid: ("render", 0, 12),
    render_pgm: ("render", 0, 12),
}


def _call(call, k, **max_k):
    """``call`` at bit width ``k``, with c = 0 for a grid or a PGM, and a grid as its bytes."""
    if call in (classification_grid, render_pgm):
        return bytes(call(k, 0, **max_k))
    return call(k, **max_k)


def _no_kernel(*args):
    raise AssertionError("the kernel ran before the cap was checked")


def _refused(monkeypatch, call, k, error=ValueError, **max_k) -> str:
    """The message of the ``error`` that ``call`` raises at width ``k``, with the kernel blocked."""
    monkeypatch.setattr(_kernel, "pieces", _no_kernel)
    monkeypatch.setattr(_kernel, "count", _no_kernel)
    with pytest.raises(error) as exc:
        _call(call, k, **max_k)
    return str(exc.value)


class _Index:
    def __index__(self):
        return 2


class _Int(int):
    pass


@pytest.mark.parametrize("k", [2.0, True, False, -1, "2", None, _Index(), _Int(3)])
@pytest.mark.parametrize("call", WIDTH_CHECKED)
def test_widths_must_be_naturals(monkeypatch, call, k):
    _refused(monkeypatch, call, k)
    if call is census:
        _refused(monkeypatch, census_closed_form_check, k)


@pytest.mark.parametrize("call", WIDTH_CHECKED)
def test_least_width_is_accepted_and_the_one_below_refused(monkeypatch, call):
    least = WIDTH_CHECKED[call][1]
    _call(call, least)
    if least:  # a width below 0 is not a natural: test_widths_must_be_naturals refuses -1
        for check in (census, census_closed_form_check):
            assert _refused(monkeypatch, check, 0) == "bit width must be >= 1, got 0"


@pytest.mark.parametrize("call", WIDTH_CHECKED)
def test_default_cap_refuses_the_width_past_it(monkeypatch, call):
    name, _, cap = WIDTH_CHECKED[call]
    message = _refused(monkeypatch, call, cap + 1, CapExceeded)
    assert message == f"{name} k={cap + 1} exceeds cap {cap}"


@pytest.mark.parametrize("call", WIDTH_CHECKED)
def test_max_k_refuses_the_width_past_it(monkeypatch, call):
    assert _call(call, 2, max_k=2) == _call(call, 2, max_k=16)
    message = _refused(monkeypatch, call, 3, CapExceeded, max_k=2)
    assert message == f"{WIDTH_CHECKED[call][0]} k=3 exceeds cap 2"


@pytest.mark.parametrize("call", WIDTH_CHECKED)
def test_environment_cap_refuses_the_width_past_it(monkeypatch, call):
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", "1")
    assert _call(call, 1) == _call(call, 1, max_k=16)
    message = _refused(monkeypatch, call, 2, CapExceeded)
    assert message == f"{WIDTH_CHECKED[call][0]} k=2 exceeds cap 1"


WIDE = (1 << 16000) - 1  # 16000 bits: too long for the interpreter to print in decimal
LONG_RAW = "9" * 5000


@pytest.mark.parametrize(
    "max_k", [-1, 17, True, 2.5, "7", 1 << 40, pytest.param(WIDE, id="16000-bit")]
)
@pytest.mark.parametrize("call", WIDTH_CHECKED)
def test_max_k_outside_the_ceiling_is_refused_before_any_work(monkeypatch, call, max_k):
    message = _refused(monkeypatch, call, 1, max_k=max_k)
    got = "<16000-bit number>" if max_k is WIDE else repr(max_k)
    assert message == f"max_k must be an integer in 0..16, got {got}"


def test_max_k_range_ends_are_accepted():
    assert census(3, max_k=16).k == 3
    assert classification_grid(3, 5, max_k=16).shape == (8, 8)
    assert render_pgm(0, 0, max_k=0) == b"P5\n1 1\n255\n\xff"
    assert classification_grid(0, 0, max_k=0).shape == (1, 1)
    with pytest.raises(CapExceeded, match=r"^census k=1 exceeds cap 0$"):
        census(1, max_k=0)


def test_max_k_wins_over_the_environment(monkeypatch):
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", "2")
    assert census(3, max_k=3).k == 3
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", "banana")
    assert render_pgm(1, 0, max_k=1).startswith(b"P5\n2 2\n")


# "+7", "1_0" and an Arabic-Indic seven are outside parse_natural's grammar, though int() takes them
@pytest.mark.parametrize(
    "raw",
    ["-1", "17", "banana", "", "2.5", "True", "+7", "1_0", "\u0667"]
    + [pytest.param(LONG_RAW, id="5000-nines")],
)
@pytest.mark.parametrize("call", WIDTH_CHECKED)
def test_environment_cap_keeps_its_message(monkeypatch, call, raw):
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", raw)
    message = _refused(monkeypatch, call, 1)
    got = "'99999999999999999999'...(5000 chars)" if raw is LONG_RAW else repr(raw)
    assert message == f"NIM_TRIPLE_MAX_K must be an integer in 0..16, got {got}"


@pytest.mark.parametrize("raw", ["0x8", "0b1000", " 8 "])
def test_environment_cap_takes_the_argument_grammar(monkeypatch, raw):
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", raw)
    assert census(8).k == 8
    assert main(["census", "8"]) == 0


@pytest.mark.parametrize(
    "k,named", [(CENSUS_CHECK_MAX_K + 1, "11"), (16, "16"), (WIDE, "<16000-bit number>")],
    ids=["11", "16", "16000-bit"],
)
def test_census_check_cap_holds_whatever_max_k_says(monkeypatch, k, named):
    # 8**k triples: at k=16 the sweep would run for days, so it is refused before it starts
    monkeypatch.setattr(_kernel, "count", _no_kernel)
    message = rf"^census check k={named} exceeds cap {CENSUS_CHECK_MAX_K}$"
    for raw in (None, "16", "banana"):
        if raw is not None:
            monkeypatch.setenv("NIM_TRIPLE_MAX_K", raw)
        with pytest.raises(CapExceeded, match=message):
            census_closed_form_check(k)
    if k <= 16:
        assert census(k, max_k=16).k == k  # the counted census is O(k) and keeps the wider cap


@pytest.mark.parametrize("raw", [None, "2", "banana"])
def test_census_check_reads_no_environment(monkeypatch, raw):
    if raw is not None:
        monkeypatch.setenv("NIM_TRIPLE_MAX_K", raw)
    assert census_closed_form_check(8)


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
        import numpy  # loaded before tracing starts, so its import is not traced

        for call in (render_pgm, classification_grid):
            assert _traced_peak(call, k, c) < 1.005 * 4**k, call.__name__


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
    proc = subprocess.run(
        [sys.executable, "-c", _TABLE_RSS, str(TABLE_MAX_N)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
        check=True,
    )
    assert int(proc.stdout) * 1024 < 12 * TABLE_MAX_N**2
