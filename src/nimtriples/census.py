"""Flat/tight/loose tallies over cubic ranges: counted per discriminant, checked by a sweep."""

from __future__ import annotations

from typing import NamedTuple

from . import _kernel
from .limits import CENSUS_CHECK_MAX_K, CapExceeded, checked_width
from .natural import require_natural

__all__ = ["CensusReport", "census", "census_closed_form_check", "closed_form_counts"]


class _CensusFields(NamedTuple):
    k: int
    flat: int
    tight: int
    loose: int


class CensusReport(_CensusFields):
    """Class tallies over all triples (a, b, c) with entries below 2**k."""

    __slots__ = ()

    def __new__(cls, k: int, flat: int, tight: int, loose: int):
        if flat + tight + loose != 8**k:
            raise ValueError("tallies must cover every triple in the cube")
        return super().__new__(cls, k, flat, tight, loose)

    @classmethod
    def _make(cls, iterable) -> CensusReport:
        # NamedTuple's _make and _replace skip __new__; route them through it.
        return cls(*iterable)

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.flat, self.tight, self.loose)

    def to_line(self) -> str:
        return f"k={self.k} flat={self.flat} tight={self.tight} loose={self.loose}"


def census(k: int, *, max_k: int | None = None) -> CensusReport:
    """Tally the classes of every triple in [0, 2**k)^3.

    The tallies are counted per discriminant (``closed_form_counts``) in
    O(k) integer steps.  The cap still applies, so the command line refuses
    the same widths as before; ``census_closed_form_check`` is the
    exhaustive route that these counts are checked against.
    """
    k = checked_width("census", k, max_k)
    return CensusReport(k, *closed_form_counts(k))


def closed_form_counts(k: int) -> tuple[int, int, int]:
    """Exact tallies: flat 4**k, tight 4**(k-1) * (2**k - 1), loose the rest.

    Proof by counting per discriminant.  Flat: for each (a, b) exactly one c,
    namely a XOR b, which stays below 2**k.  Tight: fix the discriminant j,
    the top set bit of t = a XOR b XOR c.  Above j the digits have even
    parity, 4 of the 8 digit triples, so there are 4**(k-1-j) choices.  At j
    the digits have odd parity: one tight row (1, 1, 1) and three loose rows.
    Below j any digits are allowed, 8**j choices.  So
    tight = sum over j < k of 4**(k-1-j) * 8**j = 4**(k-1) * sum of 2**j
    = 4**(k-1) * (2**k - 1), and loose_j = 3 * tight_j.
    census_closed_form_check compares this with an exhaustive sweep.
    """
    k = require_natural(k)
    if k < 1:
        raise ValueError(f"bit width must be >= 1, got {k}")
    flat = 4**k
    tight = 4 ** (k - 1) * (2**k - 1)
    return flat, tight, 8**k - flat - tight


def census_closed_form_check(k: int, *, max_k: int | None = None) -> bool:
    """True iff the closed-form tallies match an exhaustive sweep of every triple.

    The sweep builds each a-slice with the kernel's byte grid and counts its
    bytes, under the same cap as ``census`` and never above
    CENSUS_CHECK_MAX_K, which bounds its time.
    """
    k = checked_width("census", k, max_k)
    if k > CENSUS_CHECK_MAX_K:
        raise CapExceeded(f"census check k={k} exceeds cap {CENSUS_CHECK_MAX_K}")
    return _kernel.count(k) == closed_form_counts(k)
