"""The paper's bit rule as one vectorised numpy kernel, shared by census and render.

This is the only module that imports numpy.  ``census`` and
``classification_grid`` import it inside the call, after their argument and
cap checks, so the scalar routes and the command line start without numpy.

With ``t = a ^ b ^ c``, ``m = a & b & c`` and ``j = msb(t)``:

- The triangle is flat iff ``t == 0``: each vertex then equals the Nim sum
  of the other two.
- Otherwise the digits at ``j`` have odd parity, so they are (1, 1, 1) or
  hold a single 1.  ``m ^ t`` agrees with ``m`` above ``j`` and flips its
  digit at ``j``, so ``(m ^ t) < m`` iff all three digits at ``j`` are 1,
  which is exactly the tight row of the case table.
- Vertex ``x`` is large iff ``(x ^ t) < x``, by the same argument: ``x ^ t``
  is the Nim sum of the other two and first differs from ``x`` at ``j``.

Lanes use the narrowest unsigned dtype that holds ``2**k - 1``, and callers
hand the kernel blocks of at most ``BLOCK`` triangles, so no temporary grows
with the whole grid.
"""

from __future__ import annotations

import numpy as np

# Triangles per kernel call: the temporaries of one call stay in cache.
BLOCK = 1 << 16


def lane(k: int) -> np.ndarray:
    """0, 1, ..., 2**k - 1 in the narrowest unsigned dtype (uint8 to k=8, uint16 to k=16)."""
    n = 1 << k
    return np.arange(n, dtype=np.min_scalar_type(n - 1))


def row_blocks(n: int) -> list[slice]:
    """Row slices covering ``range(n)``, each at most ``BLOCK`` cells of an n-wide grid.

    A row wider than ``BLOCK`` is a block of its own.
    """
    step = max(1, BLOCK // n)
    return [slice(start, start + step) for start in range(0, n, step)]


def flat_tight(s: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat and tight masks of the triangles (s, x, y) for x in rows and y in cols.

    ``s`` must fit the lane dtype.  Every other triangle is loose.
    """
    t = (rows ^ s)[:, np.newaxis] ^ cols
    m = (rows & s)[:, np.newaxis] & cols
    return t == 0, (m ^ t) < m


def count(k: int) -> tuple[int, int]:
    """Flat and tight tallies over every triple in [0, 2**k)^3, one a-slice at a time."""
    n = 1 << k
    lanes = lane(k)
    blocks = row_blocks(n)
    flat = tight = 0
    for a in range(n):
        for rows in blocks:
            flat_mask, tight_mask = flat_tight(a, lanes[rows], lanes)
            flat += int(np.count_nonzero(flat_mask))
            tight += int(np.count_nonzero(tight_mask))
    return flat, tight


def grid(k: int, s: int, flat: int, tight: int, loose: int) -> np.ndarray:
    """uint8 grid whose cell (x, y) holds the given value for the class of (s, x, y)."""
    n = 1 << k
    if s >= n:
        # s has a digit above every coordinate, so msb(t) = msb(s) and the
        # digits there are (1, 0, 0): the case table makes every cell loose.
        return np.full((n, n), loose, dtype=np.uint8)
    lanes = lane(k)
    out = np.empty((n, n), dtype=np.uint8)
    for rows in row_blocks(n):
        flat_mask, tight_mask = flat_tight(s, lanes[rows], lanes)
        block = out[rows]
        block.fill(loose)
        np.copyto(block, tight, where=tight_mask)
        np.copyto(block, flat, where=flat_mask)
    return out
