from itertools import product

import pytest

from nimtriples import census
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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_census_matches_per_triple_classification(k):
    report = census(k)
    assert report.counts == brute_counts(k)


@pytest.mark.parametrize("k", range(1, 65))
def test_closed_form_is_the_sum_over_discriminants(k):
    # above j: 4**(k-1-j) even-parity digit triples; at j: one tight row; below j: 8**j
    tight = sum(4 ** (k - 1 - j) * 8**j for j in range(k))
    flat = 4**k
    assert tight == 4 ** (k - 1) * (2**k - 1)
    assert flat + 4 * tight == 8**k
    if k <= MAX_K_CEILING:  # past every cap the proof's arithmetic is checked alone
        assert census(k, max_k=MAX_K_CEILING) == (k, flat, tight, 3 * tight)
