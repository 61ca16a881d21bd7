"""Deterministic grayscale bitmaps of triangle classes over a coordinate grid.

Pixel (row=a, col=b) shows the class of the triangle (a, b, fixed_c).  The
gray mapping is injective over the three classes and the output is binary
PGM, so renders are byte-identical across runs and platforms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import _kernel
from .limits import checked_width
from .natural import require_natural
from .triangles import TriangleClass

if TYPE_CHECKING:
    import numpy as np

__all__ = ["GRAY_LEVELS", "classification_grid", "render_pgm"]

GRAY_LEVELS = {
    TriangleClass.FLAT: 255,
    TriangleClass.TIGHT: 170,
    TriangleClass.LOOSE: 85,
}


def _pieces(k: int, fixed_c: int, max_k: int | None) -> list[bytes]:
    """The grid of (a, b, fixed_c) as ``_kernel.pieces``, once k and fixed_c pass their checks."""
    return _kernel.pieces(
        checked_width("render", k, max_k),
        require_natural(fixed_c),
        GRAY_LEVELS[TriangleClass.FLAT],
        GRAY_LEVELS[TriangleClass.TIGHT],
        GRAY_LEVELS[TriangleClass.LOOSE],
    )


def classification_grid(k: int, fixed_c: int, *, max_k: int | None = None) -> np.ndarray:
    """Gray value per pixel for all triangles (a, b, fixed_c) with a, b < 2**k.

    A writable (2**k, 2**k) uint8 array; this is the one call that loads numpy,
    and without numpy it raises ImportError naming the ``grid`` extra.
    """
    pieces = _pieces(k, fixed_c, max_k)
    try:
        import numpy as np
    except ImportError as exc:
        raise ImportError("classification_grid needs numpy: install 'nimtriples[grid]'") from exc

    n = 1 << k
    return np.frombuffer(bytearray().join(pieces), np.uint8).reshape(n, n)


def render_pgm(k: int, fixed_c: int, *, max_k: int | None = None) -> bytes:
    """Binary PGM (magic P5, maxval 255) of the classification grid."""
    cells = _pieces(k, fixed_c, max_k)
    n = 1 << k
    return b"".join([f"P5\n{n} {n}\n255\n".encode("ascii"), *cells])
