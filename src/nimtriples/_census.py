"""Flat/tight/loose tallies over cubic ranges: counted per discriminant, checked by a sweep."""

from collections import namedtuple

from .limits import checked

__all__ = ["CensusReport", "census", "census_closed_form_check"]


class CensusReport(namedtuple("CensusReport", "k flat tight loose")):
    """Class tallies over all triples (a, b, c) with entries below 2**k."""

    __slots__ = ()

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.flat, self.tight, self.loose)

    def to_line(self) -> str:
        return f"k={self.k} flat={self.flat} tight={self.tight} loose={self.loose}"


def census(k: int, *, max_k: int | None = None) -> CensusReport:
    """Tally the classes of every triple in [0, 2**k)^3 in O(k) integer steps.

    Exact tallies: flat 4**k, tight 4**(k-1) * (2**k - 1), loose the rest.
    Proof by counting per discriminant.  Flat: for each (a, b) exactly one c,
    namely a XOR b, which stays below 2**k.  Tight: fix the discriminant j,
    the top set bit of t = a XOR b XOR c.  Above j the digits have even
    parity, 4 of the 8 digit triples, so there are 4**(k-1-j) choices.  At j
    the digits have odd parity: one tight row (1, 1, 1) and three loose rows.
    Below j any digits are allowed, 8**j choices.  So
    tight = sum over j < k of 4**(k-1-j) * 8**j = 4**(k-1) * sum of 2**j
    = 4**(k-1) * (2**k - 1), and loose_j = 3 * tight_j.

    ``k`` is held to the census cap all the same; ``census_closed_form_check``
    compares these tallies with an exhaustive sweep.
    """
    k = checked("census", k, max_k)
    return CensusReport(k, *_tallies(k))


def _tallies(k: int) -> tuple[int, int, int]:
    """The flat, tight and loose tallies of ``census`` for a checked ``k``."""
    flat, tight = 4**k, 4 ** (k - 1) * (2**k - 1)
    return flat, tight, 8**k - flat - tight


def census_closed_form_check(k: int) -> bool:
    """True iff the tallies of ``census(k)`` match an exhaustive sweep of every triple.

    The sweep builds each a-slice with the kernel's byte grid and counts its
    bytes.  Its one cap is CENSUS_CHECK_MAX_K, which bounds its time, and
    ``k`` is checked once, in full, before the sweep starts.
    """
    from ._kernel import count  # only the check sweeps, so only the check loads the kernel

    k = checked("census check", k)
    return _tallies(k) == count(k)
