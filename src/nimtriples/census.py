"""Exhaustive flat/tight/loose tallies over cubic ranges, with closed-form checks."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .limits import CapExceeded, census_max_k, shown

__all__ = ["CensusReport", "census", "census_closed_form_check", "closed_form_counts"]


@dataclass(frozen=True)
class CensusReport:
    """Class tallies over all triples (a, b, c) with entries below 2**k."""

    k: int
    flat: int
    tight: int
    loose: int
    elapsed_ms: float

    def __post_init__(self) -> None:
        if self.flat + self.tight + self.loose != self.total:
            raise ValueError("tallies must cover every triple in the cube")

    @property
    def total(self) -> int:
        return 8**self.k

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.flat, self.tight, self.loose)

    def to_line(self, *, timing: bool = False) -> str:
        line = f"k={self.k} flat={self.flat} tight={self.tight} loose={self.loose}"
        if timing:
            line += f" ms={self.elapsed_ms:.1f}"
        return line

    def as_dict(self, *, timing: bool = False) -> dict:
        fields: dict = {"k": self.k, "flat": self.flat, "tight": self.tight, "loose": self.loose}
        if timing:
            fields["ms"] = round(self.elapsed_ms, 1)
        return fields


def census(k: int, *, max_k: int | None = None) -> CensusReport:
    """Classify every triple in [0, 2**k)^3 and tally the classes.

    The sweep runs one a-slice at a time over blocks of the (b, c) grid, so
    memory stays bounded by the kernel block and the tallies are
    deterministic regardless of how the slices are batched.
    """
    limit = census_max_k() if max_k is None else max_k
    if k < 1:
        raise ValueError(f"bit width must be >= 1, got {k}")
    if k > limit:
        raise CapExceeded(f"census k={shown(k)} exceeds cap {limit}")
    from . import _kernel

    start = time.perf_counter()
    flat, tight = _kernel.count(k)
    loose = 8**k - flat - tight
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return CensusReport(k, flat, tight, loose, elapsed_ms)


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
    census_closed_form_check compares this with an exhaustive census.
    """
    if k < 1:
        raise ValueError(f"bit width must be >= 1, got {k}")
    flat = 4**k
    tight = 4 ** (k - 1) * (2**k - 1)
    return flat, tight, 8**k - flat - tight


def census_closed_form_check(k: int, *, max_k: int | None = None) -> bool:
    """True iff the closed-form tallies match an actual exhaustive census."""
    return census(k, max_k=max_k).counts == closed_form_counts(k)
