"""Deterministic grayscale bitmaps of triangle classes over a coordinate grid.

Pixel (row=a, col=b) shows the class of the triangle (a, b, fixed_c).  The
gray mapping is injective over the three classes and the output is binary
PGM, so renders are byte-identical across runs and platforms.
"""

from __future__ import annotations

import numpy as np

from . import _kernel
from .limits import CapExceeded, render_max_k
from .natural import require_natural
from .triangles import TriangleClass

__all__ = ["GRAY_LEVELS", "classification_grid", "render_pgm"]

GRAY_LEVELS = {
    TriangleClass.FLAT: 255,
    TriangleClass.TIGHT: 170,
    TriangleClass.LOOSE: 85,
}


def classification_grid(k: int, fixed_c: int, *, max_k: int | None = None) -> np.ndarray:
    """Gray value per pixel for all triangles (a, b, fixed_c) with a, b < 2**k."""
    limit = render_max_k() if max_k is None else max_k
    if k < 0:
        raise ValueError(f"bit width must be >= 0, got {k}")
    if k > limit:
        raise CapExceeded(f"render k={k} exceeds cap {limit}")
    fixed_c = require_natural(fixed_c)
    n = 1 << k
    if fixed_c >= n:
        # c has a digit above every coordinate, so msb(t) = msb(c) and the
        # digits there are (0, 0, 1): the case table makes every pixel loose.
        return np.full((n, n), GRAY_LEVELS[TriangleClass.LOOSE], dtype=np.uint8)
    lane = _kernel.lane(k)
    grid = np.empty((n, n), dtype=np.uint8)
    for rows in _kernel.row_blocks(n):
        flat, tight = _kernel.flat_tight(fixed_c, lane[rows], lane)
        block = grid[rows]
        block.fill(GRAY_LEVELS[TriangleClass.LOOSE])
        np.copyto(block, GRAY_LEVELS[TriangleClass.TIGHT], where=tight)
        np.copyto(block, GRAY_LEVELS[TriangleClass.FLAT], where=flat)
    return grid


def render_pgm(k: int, fixed_c: int, *, max_k: int | None = None) -> bytes:
    """Binary PGM (magic P5, maxval 255) of the classification grid."""
    grid = classification_grid(k, fixed_c, max_k=max_k)
    n = grid.shape[0]
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    return header + memoryview(grid)
