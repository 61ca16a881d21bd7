"""Deterministic grayscale bitmaps of triangle classes over a coordinate grid.

Pixel (row=a, col=b) shows the class of the triangle (a, b, fixed_c).  The
gray mapping is injective over the three classes and the output is binary
PGM, so renders are byte-identical across runs and platforms.
"""

from . import _kernel
from .limits import checked_width
from .natural import require_natural
from .triangles import TriangleClass

__all__ = ["GRAY_LEVELS", "classification_grid", "render_pgm"]

GRAY_LEVELS = {
    TriangleClass.FLAT: 255,
    TriangleClass.TIGHT: 170,
    TriangleClass.LOOSE: 85,
}
_LOOSE = bytes([GRAY_LEVELS[TriangleClass.LOOSE]])


def _checked(k: int, fixed_c: int, max_k: int | None) -> tuple[int, int]:
    """k and fixed_c once they pass their checks, before anything is allocated."""
    return checked_width("render", k, max_k), require_natural(fixed_c)


def _pieces(k: int, fixed_c: int) -> list[bytes]:
    """The grid of (a, b, fixed_c) as pieces, row by row, for a checked k and fixed_c.

    All loose.  Where fixed_c >= 2**k the grid is 2**k equal rows of loose
    cells: fixed_c has a digit above every coordinate, so at j = msb(t) =
    msb(fixed_c) the digits of (a, b, fixed_c) are (0, 0, 1), not all 1.
    classification_grid and render_pgm build that grid as one fill; every
    other grid is ``_kernel.pieces``.
    """
    n = 1 << k
    if fixed_c >= n:
        return [_LOOSE * n] * n
    flat, tight, loose = (GRAY_LEVELS[kind] for kind in TriangleClass)  # the enum's order
    return _kernel.pieces(k, fixed_c, flat, tight, loose)


def _header(k: int) -> bytes:
    return f"P5\n{1 << k} {1 << k}\n255\n".encode("ascii")


def classification_grid(k: int, fixed_c: int, *, max_k: int | None = None) -> "numpy.ndarray":
    """Gray value per pixel for all triangles (a, b, fixed_c) with a, b < 2**k.

    A writable (2**k, 2**k) uint8 array over one fill where fixed_c >= 2**k, since every
    cell is loose there (see ``_pieces``), and over one join of the grid's
    pieces otherwise.  This is the one call that loads numpy; without it, ImportError
    names the ``grid`` extra.
    """
    k, fixed_c = _checked(k, fixed_c, max_k)
    try:
        import numpy as np
    except ImportError as exc:
        raise ImportError("classification_grid needs numpy: install 'nimtriples[grid]'") from exc

    n = 1 << k
    cells = bytearray(_LOOSE) * (n * n) if fixed_c >= n else bytearray().join(_pieces(k, fixed_c))
    return np.frombuffer(cells, np.uint8).reshape(n, n)


def _pgm_chunks(k: int, fixed_c: int, max_k: int | None = None) -> list[bytes]:
    """The PGM header, then the grid's pieces: what the CLI writes as is, joined nowhere."""
    k, fixed_c = _checked(k, fixed_c, max_k)
    return [_header(k), *_pieces(k, fixed_c)]


def render_pgm(k: int, fixed_c: int, *, max_k: int | None = None) -> bytes:
    """Binary PGM (magic P5, maxval 255) of the classification grid, in one allocation:
    the header then one fill where fixed_c >= 2**k, as in classification_grid, or one
    join of the header and the grid's pieces otherwise."""
    k, fixed_c = _checked(k, fixed_c, max_k)
    header = _header(k)
    if fixed_c >= 1 << k:
        return header.ljust(len(header) + 4**k, _LOOSE)
    return b"".join([header, *_pieces(k, fixed_c)])
