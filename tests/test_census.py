from itertools import permutations, product

import pytest

from nimtriples import (
    CapExceeded,
    CensusReport,
    census,
    census_closed_form_check,
    classify_triangle,
)
from nimtriples.limits import MAX_K_CEILING


def brute_counts(k):
    # independent route: per-triple comparisons, no shared code with census() or the classifier
    flat = tight = loose = 0
    for a, b, c in product(range(1 << k), repeat=3):
        aligned = (a == b ^ c) + (b == a ^ c) + (c == a ^ b)
        large = (a > b ^ c) + (b > a ^ c) + (c > a ^ b)
        if aligned == 3:
            flat += 1
        elif large == 3:
            tight += 1
        else:
            loose += 1
    return flat, tight, loose


def test_census_k1():
    report = census(1)
    assert (report.flat, report.tight, report.loose) == (4, 1, 3)
    assert sum(report.counts) == 8**report.k


def test_census_k2():
    report = census(2)
    assert (report.flat, report.tight, report.loose) == (16, 12, 36)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_census_matches_per_triple_classification(k):
    report = census(k)
    assert report.counts == brute_counts(k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_flat_count_is_fourth_power(k):
    assert census(k).flat == 4**k


def test_census_is_permutation_blind():
    # swapping side roles cannot change any count
    k = 2
    base = census(k).counts
    counts = {"flat": 0, "tight": 0, "loose": 0}
    for a, b, c in product(range(1 << k), repeat=3):
        kinds = {classify_triangle(*p).kind for p in permutations((a, b, c))}
        assert len(kinds) == 1
        counts[kinds.pop().value] += 1
    assert (counts["flat"], counts["tight"], counts["loose"]) == base


def test_census_rejects_k_zero():
    with pytest.raises(ValueError):
        census(0)


def test_census_cap():
    with pytest.raises(CapExceeded):
        census(8)
    with pytest.raises(CapExceeded):
        census(3, max_k=2)
    assert census(2, max_k=2).flat == 16


def test_census_cap_env_override(monkeypatch):
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", "1")
    with pytest.raises(CapExceeded):
        census(2)
    assert census(1).flat == 4
    monkeypatch.setenv("NIM_TRIPLE_MAX_K", "banana")
    with pytest.raises(ValueError):
        census(1)


def test_report_to_line():
    report = census(1)
    assert report.to_line() == "k=1 flat=4 tight=1 loose=3"


def test_report_as_dict():
    payload = census(1)._asdict()
    assert list(payload.items()) == [("k", 1), ("flat", 4), ("tight", 1), ("loose", 3)]


@pytest.mark.parametrize("k", range(1, 65))
def test_closed_form_is_the_sum_over_discriminants(k):
    # above j: 4**(k-1-j) even-parity digit triples; at j: one tight row; below j: 8**j
    tight = sum(4 ** (k - 1 - j) * 8**j for j in range(k))
    flat = 4**k
    assert tight == 4 ** (k - 1) * (2**k - 1)
    assert flat + 4 * tight == 8**k
    if k <= MAX_K_CEILING:  # past every cap the proof's arithmetic is checked alone
        assert census(k, max_k=MAX_K_CEILING).counts == (flat, tight, 3 * tight)


@pytest.mark.parametrize("k", range(1, MAX_K_CEILING + 1))
def test_census_is_a_pure_value(k):
    report = census(k, max_k=MAX_K_CEILING)
    assert report == census(k, max_k=MAX_K_CEILING)
    assert hash(report) == hash(census(k, max_k=MAX_K_CEILING))
    assert CensusReport._fields == ("k", "flat", "tight", "loose")
    assert report == CensusReport(k, *report.counts) == (k, *report.counts)


def test_report_outputs_for_k2():
    report = census(2)
    assert report.to_line() == "k=2 flat=16 tight=12 loose=36"
    assert list(report._asdict().items()) == [("k", 2), ("flat", 16), ("tight", 12), ("loose", 36)]


class _Index:
    def __index__(self):
        return 2


class _Int(int):
    pass


@pytest.mark.parametrize("k", [2.0, True, False, -1, "2", None, _Index(), _Int(3)])
def test_widths_must_be_naturals(k):
    for call in (census, census_closed_form_check):
        with pytest.raises(ValueError):
            call(k)


def test_width_check_keeps_its_messages():
    with pytest.raises(ValueError, match=r"^bit width must be >= 1, got 0$"):
        census(0)
    with pytest.raises(ValueError, match=r"^bit width must be >= 1, got 0$"):
        census_closed_form_check(0)
    with pytest.raises(CapExceeded, match=r"^census k=8 exceeds cap 7$"):
        census(8)
    with pytest.raises(CapExceeded, match=r"^census k=3 exceeds cap 2$"):
        census(3, max_k=2)
    with pytest.raises(CapExceeded, match=r"^census check k=11 exceeds cap 10$"):
        census_closed_form_check(11)
