"""The paper's bit rule as one grid of bytes, shared by render and the census check.

With ``t = a ^ b ^ c`` and ``j = msb(t)``, the triangle is flat iff
``t == 0``; otherwise the digits at ``j`` have odd parity, and it is tight
iff all three are 1 and loose otherwise (the case table).

Row lemma.  In the grid of the triangles ``(s, x, y)`` with ``x, y < 2**k``,
row ``x`` depends only on ``u = s ^ x``: each cell ``y < u`` is loose, cell
``u`` is flat, and each cell ``y > u`` is tight iff ``s`` has a 1 at
``msb(u ^ y)``.  Proof: ``t = u ^ y``, so the cell is flat iff ``y == u``.
Otherwise ``u`` and ``y`` first differ at ``j = msb(t)``, and the larger one
has the 1 there.  If ``y < u``, ``y`` has a 0 at ``j``, so the cell is loose.
If ``y > u``, ``u`` has a 0 at ``j``, so ``x = s ^ u`` has the digit of ``s``
there, and all three digits are 1 iff that digit is.  For each 0 digit ``j``
of ``u``, the cells ``y > u`` with ``msb(u ^ y) = j`` agree with ``u`` above
``j``, have a 1 at ``j`` and run freely below it: one block of ``2**j``
cells, and the blocks follow one another in ascending ``j``.

Two scales.  With ``lo = k // 2``, ``m = 2**lo`` and ``u = uh*m + ul``, row
``x`` is ``uh*m`` loose cells, then row ``x mod m`` of the ``lo``-bit grid
of ``s mod m`` (the lemma at ``ul``), then the blocks of the 0 digits
``j >= lo`` of ``u``, from two tables of ``2**lo`` and ``2**(k - lo)``
entries.  The ``m`` rows that share ``uh`` share the first and the last
part, so the grid is ``2 * 2**k + 2**(k - lo)`` references to strings no
longer than ``2**k - m``: nothing as long as a row is built before the join.
"""

from collections import Counter

__all__ = ["count", "pieces"]


def _blocks(bits: int, s: int, size: int, tight: bytes, loose: bytes) -> list[bytes]:
    """Entry ``u``: ``size << j`` cells per 0 digit ``j < bits`` of ``u``, tight at a 1 of ``s``.

    After digits ``0..j-1``, entry ``u`` holds the blocks of the 0 digits of ``u`` below ``j`` in
    ascending order; of the next level, the first half (a 0 at ``j``) gets ``block`` appended."""
    out = [b""]
    for j in range(bits):
        block = (loose, tight)[s >> j & 1] * (size << j)
        out = [t + block for t in out] + out
    return out


def pieces(k: int, s: int, flat: int, tight: int, loose: int) -> list[bytes]:
    """Byte strings whose concatenation is the grid of (s, x, y), x, y < 2**k, row by row.

    Cell (x, y) holds ``flat``, ``tight`` or ``loose`` for the class of the
    triangle.  Each run of ``m`` rows that share ``uh`` is ``before, row 0,
    after + before, row 1, ..., row m-1, after``.

    All loose.  Where ``s >= 2**k`` the pieces are ``2**k`` equal rows of
    loose cells, and render builds that grid as one fill: ``s`` has a digit
    above every coordinate, so at ``j = msb(t) = msb(s)`` the digits are (1, 0, 0), not all 1.
    """
    n = 1 << k
    if s >= n:
        return [bytes([loose]) * n] * n
    lo, m = k // 2, 1 << k // 2
    flat, tight, loose = bytes([flat]), bytes([tight]), bytes([loose])
    small, large = _blocks(lo, s, 1, tight, loose), _blocks(k - lo, s >> lo, m, tight, loose)
    rows = [loose * (u := s % m ^ x) + flat + small[u] for x in range(m)]
    grid = []
    for u in (s >> lo ^ x for x in range(n >> lo)):
        before, after = loose * (u * m), large[u]
        run = [after + before] * (2 * m + 1)
        run[0], run[1::2], run[-1] = before, rows, after
        grid += run
    return grid


def count(k: int) -> tuple[int, int, int]:
    """Flat, tight and loose tallies over every triple in [0, 2**k)^3, one a-slice at a time.

    Each distinct piece of a slice is counted once and weighed by how often
    it occurs: ``after + before`` repeats in every run, and each small row
    once per run.
    """
    flat = tight = loose = 0
    for a in range(1 << k):
        for piece, times in Counter(pieces(k, a, 0, 1, 2)).items():
            flat += piece.count(0) * times
            tight += piece.count(1) * times
            loose += piece.count(2) * times
    return flat, tight, loose
