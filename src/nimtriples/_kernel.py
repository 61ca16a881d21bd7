"""The paper's bit rule as one grid of bytes, shared by render and the census check.

With ``t = a ^ b ^ c`` and ``j = msb(t)``, the triangle is flat iff
``t == 0``; otherwise the digits at ``j`` have odd parity, and it is tight
iff all three are 1 and loose otherwise (the case table).

So the grid of the triangles ``(s, x, y)`` with ``x, y < 2**k`` splits by the
top digits of ``x`` and ``y``.  Where the three top digits have odd parity,
``msb(t)`` is the top position for the whole quadrant, which is one class:
tight if the digits are (1, 1, 1), loose otherwise.  Where the parity is
even, the top digit drops out of ``t``, and the quadrant is the grid of
``s mod 2**(k-1)`` one bit narrower.  Building the grid from ``k = 0`` up
takes one ``bytes`` concatenation per row per level, about ``2**k`` in all.
"""

from __future__ import annotations

__all__ = ["count", "pieces"]


def _quadrants(rows: list[bytes], top: int, tight: int, loose: int) -> list[tuple[bytes, bytes]]:
    """(left, right) halves of each row of the grid one bit wider than ``rows``.

    ``top`` is the digit of ``s`` at the new top position.  With ``top == 0``
    the diagonal quadrants have even parity and the others hold one 1; with
    ``top == 1`` the off-diagonal quadrants are even, the top-left holds one
    1 and the bottom-right all three.
    """
    half = len(rows[0])
    odd = bytes([loose]) * half
    if top:
        ones = bytes([tight]) * half
        return [(odd, row) for row in rows] + [(row, ones) for row in rows]
    return [(row, odd) for row in rows] + [(odd, row) for row in rows]


def pieces(k: int, s: int, flat: int, tight: int, loose: int) -> list[bytes]:
    """Byte strings whose concatenation is the grid of (s, x, y), x, y < 2**k, row by row.

    Cell (x, y) holds ``flat``, ``tight`` or ``loose`` for the class of the
    triangle.  The top-level rows are never joined: each is two pieces.
    """
    n = 1 << k
    if s >= n:
        # s has a digit above every coordinate, so msb(t) = msb(s) and the
        # digits there are (1, 0, 0): the case table makes every cell loose.
        return [bytes([loose]) * n] * n
    rows = [bytes([flat])]
    for i in range(k - 1):
        rows = [left + right for left, right in _quadrants(rows, s >> i & 1, tight, loose)]
    if k == 0:
        return rows
    return [half for pair in _quadrants(rows, s >> (k - 1), tight, loose) for half in pair]


def count(k: int) -> tuple[int, int, int]:
    """Flat, tight and loose tallies over every triple in [0, 2**k)^3, one a-slice at a time."""
    flat = tight = loose = 0
    for a in range(1 << k):
        cells = b"".join(pieces(k, a, 0, 1, 2))
        flat += cells.count(0)
        tight += cells.count(1)
        loose += cells.count(2)
    return flat, tight, loose
