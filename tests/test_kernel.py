"""Every byte route to a grid of classes against ``classify_triangle``, over one set of grids.

``GRIDS`` holds each k with the fixed c of its grids, and ``classified(k, c)``
is the one reference grid: the gray level of ``classify_triangle``'s class for
each cell (a, b, c), row by row.  Every byte route must give it:
``_kernel.pieces`` joined where c < 2**k, and after the PGM header
``render._pgm_chunks`` joined, ``render_pgm`` and the file that ``render``
writes through ``main``; under ``needs_numpy``, ``classification_grid`` gives
its bytes as a writable (2**k, 2**k) uint8 array.  The other tests hold what
one reference grid cannot: rows of k = 12 grids, the row lemma cell by cell,
how many pieces a grid is and how long, and the bytes of four renders.
"""

import hashlib
import random
from functools import cache
from itertools import product

import pytest

from conftest import needs_numpy
from nimtriples import (
    GRAY_LEVELS,
    TriangleClass,
    bit,
    classification_grid,
    classify_triangle,
    render_pgm,
)
from nimtriples import _kernel
from nimtriples.cli import main
from nimtriples.render import _pgm_chunks

WIDE_C = (1 << 61, 1 << 62, 1 << 70)

# each k with the fixed c of its grids: every c below 2**(k+1) + 2 and the three wide ones
# up to k = 5, and the full grids of k = 8 and 9
GRIDS = {k: [*range((2 << k) + 2), *WIDE_C] for k in range(6)} | {8: [255], 9: [511]}


@cache
def classified(k, c):
    """The grid of (a, b, c), a, b < 2**k, row by row: the gray level of each cell's class."""
    cells = product(range(1 << k), repeat=2)
    return bytes(GRAY_LEVELS[classify_triangle(a, b, c).kind] for a, b in cells)


@pytest.mark.parametrize(("k", "cs"), GRIDS.items(), ids=GRIDS)
def test_every_byte_route_gives_the_classified_grid(tmp_path, k, cs):
    header = b"P5\n%d %d\n255\n" % (1 << k, 1 << k)
    kinds = (TriangleClass.FLAT, TriangleClass.TIGHT, TriangleClass.LOOSE)  # pieces' order
    levels = [GRAY_LEVELS[kind] for kind in kinds]
    target = tmp_path / "grid.pgm"
    for c in cs:
        cells = classified(k, c)
        if c < 1 << k:
            assert b"".join(_kernel.pieces(k, c, *levels)) == cells, (k, c)
        assert b"".join(_pgm_chunks(k, c, None)) == header + cells, (k, c)
        assert render_pgm(k, c) == header + cells, (k, c)
        assert main(["render", str(k), str(c), "--out", str(target)]) == 0, (k, c)
        assert target.read_bytes() == header + cells, (k, c)


@needs_numpy
@pytest.mark.parametrize(("k", "cs"), GRIDS.items(), ids=GRIDS)
def test_classification_grid_is_the_classified_grid(k, cs):
    n = 1 << k
    for c in cs:
        grid = classification_grid(k, c)
        assert grid.dtype == "uint8" and grid.shape == (n, n) and grid.flags.writeable, (k, c)
        assert grid.tobytes() == classified(k, c), (k, c)


def test_render_rows_at_k12_match_classify():
    k, n = 12, 1 << 12
    rng = random.Random(12)
    for c in (0, 1, n - 1, rng.randrange(n), n, 1 << 70):
        data = render_pgm(k, c)
        header = len(data) - n * n
        for a in (0, 1, n // 2 - 1, n // 2, n - 1, rng.randrange(n)):
            row = data[header + a * n : header + (a + 1) * n]
            want = bytes(GRAY_LEVELS[classify_triangle(a, b, c).kind] for b in range(n))
            assert row == want, (c, a)


def test_each_row_is_loose_cells_then_flat_then_tight_where_s_has_a_1():
    # the row lemma, cell by cell: row x depends on u = s ^ x alone
    for k in range(7):
        n = 1 << k
        for s in range(n):
            cells = b"".join(_kernel.pieces(k, s, 0, 1, 2))
            for x in range(n):
                u = s ^ x
                tail = bytes(1 if bit(s, (u ^ y).bit_length() - 1) else 2 for y in range(u + 1, n))
                assert cells[x * n : (x + 1) * n] == bytes([2]) * u + bytes([0]) + tail, (k, s, x)


def test_pieces_are_few_and_none_as_long_as_a_row():
    for k in range(1, 9):
        n, m = 1 << k, 1 << k // 2
        for s in range(n):
            cells = _kernel.pieces(k, s, 0, 1, 2)
            assert len(cells) == 2 * n + (1 << k - k // 2), (k, s)
            assert max(map(len, cells)) <= n - m, (k, s)


@pytest.mark.parametrize(
    ("k", "c", "digest"),
    [
        (12, 5, "8f6127b5b1c6efd217871db4e6b42fc3fbd0dc6c5531cab6c317ea7eb7b20c7b"),
        (12, 1365, "ed21c160cee88d4bd02dc3c4fda1adfdf37efc1cbf08b577ac9a7736970be951"),
        (7, 100, "ea9f108403bbdfb82d92dfadf3d39037abfb041aa5e1e00e89f8ec4647e32d1e"),
        (12, 4096, "baf60d651c50311c57c4b60415ba7f8af78ac46489f8a89e3ccbc7f7413f8367"),
    ],
)
def test_render_bytes_are_pinned(k, c, digest):
    assert hashlib.sha256(render_pgm(k, c)).hexdigest() == digest
