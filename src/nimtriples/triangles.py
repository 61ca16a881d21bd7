"""Vertex statuses and the flat/tight/loose taxonomy of number triples.

A "triangle" is an ordered triple (a, b, c) of naturals.  Each vertex is
compared against the Nim sum of the other two: strictly greater is large,
equal is aligned, smaller is small.  If one vertex is aligned all three are,
and the triangle is flat.  A non-flat triangle always has exactly one or
three large vertices (loose or tight); which case holds is decided entirely
by the three binary digits at the discriminant, the highest bit position
where a's digit differs from the XOR of b's and c's digits.
"""

import enum
from collections import namedtuple

from .natural import require_natural

__all__ = [
    "CASE_TABLE",
    "TriangleClass",
    "TriangleClassification",
    "VertexStatus",
    "case_table_lookup",
    "classify_triangle",
    "classify_vertex",
    "reorder_dominant",
]


class VertexStatus(enum.Enum):
    LARGE = "large"
    ALIGNED = "aligned"
    SMALL = "small"


class TriangleClass(enum.Enum):
    FLAT = "flat"
    TIGHT = "tight"
    LOOSE = "loose"


Statuses = tuple[VertexStatus, VertexStatus, VertexStatus]

_L = VertexStatus.LARGE
_S = VertexStatus.SMALL
_A = VertexStatus.ALIGNED
_TIGHT = (_L, _L, _L)
_TIGHT_KIND = TriangleClass.TIGHT
_LOOSE_KIND = TriangleClass.LOOSE


TriangleClassification = namedtuple("TriangleClassification", "statuses kind discriminant")
TriangleClassification.__doc__ = """Per-vertex statuses plus the class of the whole triangle.

``statuses`` holds three VertexStatus and ``kind`` is a TriangleClass.
``discriminant`` is None exactly for flat triangles; otherwise it is the
bit position whose digits force the statuses.
"""


_FLAT = TriangleClassification((_A, _A, _A), TriangleClass.FLAT, None)

# namedtuple's own _make route minus its length check: calling the class runs a generated
# Python __new__ that about doubles a record's cost, so keep the records built through _new.
_new = tuple.__new__


def classify_vertex(x: int, y: int, z: int) -> VertexStatus:
    """Status of x measured against the Nim sum of y and z."""
    x = require_natural(x)
    others = require_natural(y) ^ require_natural(z)
    if x > others:
        return _L
    if x == others:
        return _A
    return _S


def classify_triangle(a: int, b: int, c: int) -> TriangleClassification:
    """Classify the triangle (a, b, c) by its large-vertex count.

    Flat iff a XOR b XOR c == 0.  Otherwise, with t = a XOR b XOR c, vertex x
    is large iff (x XOR t) < x, i.e. iff x has digit 1 at msb(t); the digits
    there have odd parity, so the large-vertex count is 3 (tight) or 1 (loose).
    The discriminant is msb(t), the highest bit position where a's digit
    differs from the XOR of b's and c's: digit i of a differs from it iff bit
    i of t is set.
    """
    a = require_natural(a)
    b = require_natural(b)
    c = require_natural(c)
    t = a ^ b ^ c
    if t == 0:
        return _FLAT
    statuses = (
        _L if (a ^ t) < a else _S,
        _L if (b ^ t) < b else _S,
        _L if (c ^ t) < c else _S,
    )
    kind = _TIGHT_KIND if statuses == _TIGHT else _LOOSE_KIND
    return _new(TriangleClassification, (statuses, kind, t.bit_length() - 1))


# Outcome per digit triple (a_j, b_j, c_j) at the discriminant.  None marks
# the contradiction rows: digit triples whose XOR balances cannot occur there.
CASE_TABLE: dict[tuple[int, int, int], Statuses | None] = {
    (1, 1, 1): (_L, _L, _L),
    (1, 1, 0): None,
    (1, 0, 1): None,
    (1, 0, 0): (_L, _S, _S),
    (0, 1, 1): None,
    (0, 1, 0): (_S, _L, _S),
    (0, 0, 1): (_S, _S, _L),
    (0, 0, 0): None,
}


def case_table_lookup(bit_a: int, bit_b: int, bit_c: int) -> Statuses | None:
    """Statuses forced by the three digits at the discriminant position.

    Returns None for the contradiction rows, i.e. whenever
    ``bit_a == bit_b XOR bit_c``.  Each digit must be the int 0 or 1;
    ``True`` and ``1.0`` are refused like any other non-natural.
    """
    key = (bit_a, bit_b, bit_c)
    if any(type(d) is not int or d not in (0, 1) for d in key):
        raise ValueError(f"binary digits required, got {key}")
    return CASE_TABLE[key]


def reorder_dominant(
    a1: int, a2: int, a3: int
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Permute the triple so the first entry is >= the Nim sum of the other two.

    Such a position always exists: a flat triangle meets the bound with
    equality everywhere, and a non-flat one contains a large vertex.  The
    leftmost qualifying position wins and the other two keep their relative
    order.  Returns the permuted triple and the permutation as original
    indices, so ``result[k] == input[perm[k]]``.
    """
    a1 = require_natural(a1)
    a2 = require_natural(a2)
    a3 = require_natural(a3)
    t = a1 ^ a2 ^ a3
    if t == 0 or (a1 ^ t) < a1:
        return (a1, a2, a3), (0, 1, 2)
    if (a2 ^ t) < a2:
        return (a2, a1, a3), (1, 0, 2)
    # a non-flat triangle has a large vertex, so it is the last one here
    return (a3, a1, a2), (2, 0, 1)
