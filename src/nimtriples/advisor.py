"""Winning-move advice for Nim positions.

A position is a sequence of pile sizes.  The side to move wins exactly when
the Nim sum over all piles is nonzero; a winning move lowers some pile to
the Nim sum of the others.  For three piles such a pile is precisely a large
vertex of the triangle, so the number of distinct winning pile reductions is
always 0, 1, or 3.
"""

from collections import namedtuple
from collections.abc import Sequence

from .natural import require_natural

__all__ = ["Move", "advise_move", "winning_moves"]


Move = namedtuple("Move", "pile new_size")
Move.__doc__ = """Lower pile ``pile`` to ``new_size``."""

# namedtuple's own _make route minus its length check: calling the class runs a generated
# Python __new__ that about doubles a record's cost, so keep the records built through _new.
_new = tuple.__new__


def advise_move(piles: Sequence[int]) -> Move | None:
    """First winning reduction, leftmost pile wins ties; None if the position is lost.

    Some pile always reduces when the Nim sum ``total`` is nonzero.  Let
    j = msb(total).  Digit j of total is the XOR of the piles' digits at j
    and is 1, so some pile has digit 1 there.  For that pile, size ^ total
    keeps every digit of size above j (total has none there) and clears
    digit j, so (size ^ total) < size: lowering the pile to size ^ total,
    the Nim sum of the other piles, is legal and leaves Nim sum 0.
    """
    sizes = [require_natural(p) for p in piles]
    if not sizes:
        raise ValueError("position needs at least one pile")
    total = 0
    for size in sizes:
        total ^= size
    if total == 0:
        return None
    for i, size in enumerate(sizes):
        target = size ^ total  # Nim sum of the other piles
        if target < size:
            break
    # the loop stops at a pile that reduces, which exists as proved above
    return _new(Move, (i, target))


def winning_moves(piles: Sequence[int]) -> list[Move]:
    """Every winning reduction of a three-pile position, leftmost first.

    The result has length 0, 1, or 3: empty exactly when the triangle is
    flat, otherwise one entry per large vertex.
    """
    sizes = [require_natural(p) for p in piles]
    if len(sizes) != 3:
        raise ValueError(f"exactly 3 piles required, got {len(sizes)}")
    total = sizes[0] ^ sizes[1] ^ sizes[2]
    moves = []
    for i, size in enumerate(sizes):
        others = size ^ total
        if others < size:
            moves.append(_new(Move, (i, others)))
    return moves
