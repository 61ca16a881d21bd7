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
``j >= lo`` of ``u``.  The ``m`` rows that share ``uh`` share the first and
the last part, so the grid is ``2 * 2**k + 2**(k - lo)`` references to
strings no longer than ``2**k - m``, and no string as long as a row is
built before the caller joins them.
"""

from collections import Counter

__all__ = ["count", "pieces"]


def _blocks(u: int, bits: int, s: int, size: int, tight: bytes, loose: bytes) -> bytes:
    """``size << j`` cells for each 0 digit ``j < bits`` of ``u``: tight where ``s`` has a 1."""
    return b"".join((loose, tight)[s >> j & 1] * (size << j) for j in range(bits) if not u >> j & 1)


def pieces(k: int, s: int, flat: int, tight: int, loose: int) -> list[bytes]:
    """Byte strings whose concatenation is the grid of (s, x, y), x, y < 2**k, row by row.

    Cell (x, y) holds ``flat``, ``tight`` or ``loose`` for the class of the
    triangle.  Each run of ``m`` rows that share ``uh`` is ``before, row 0,
    after + before, row 1, ..., row m-1, after``.
    """
    n = 1 << k
    if s >= n:
        # s has a digit above every coordinate, so msb(t) = msb(s) and the
        # digits there are (1, 0, 0): the case table makes every cell loose.
        return [bytes([loose]) * n] * n
    lo = k // 2
    hi, m = k - lo, 1 << lo
    flat, tight, loose = bytes([flat]), bytes([tight]), bytes([loose])
    rows = [loose * (u := s % m ^ x) + flat + _blocks(u, lo, s, 1, tight, loose) for x in range(m)]
    grid = []
    for u in (s >> lo ^ x for x in range(1 << hi)):
        before, after = loose * (u * m), _blocks(u, hi, s >> lo, m, tight, loose)
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
