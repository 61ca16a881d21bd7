"""The byte-grid kernel against classify_triangle, the row lemma and its own block tables."""

import hashlib
import random
from itertools import product

import pytest

from nimtriples import (
    GRAY_LEVELS,
    TriangleClass,
    bit,
    classification_grid,
    classify_triangle,
    render_pgm,
)
from nimtriples import _kernel
from nimtriples.render import _pgm_chunks

WIDE_C = (1 << 61, 1 << 62, 1 << 70)


def test_gray_levels_are_distinct():
    assert len(set(GRAY_LEVELS.values())) == 3
    assert GRAY_LEVELS[TriangleClass.FLAT] == 255
    assert GRAY_LEVELS[TriangleClass.TIGHT] == 170
    assert GRAY_LEVELS[TriangleClass.LOOSE] == 85


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_grid_matches_classify_for_every_small_and_wide_c(k):
    n = 1 << k
    for c in [*range(2 * n + 2), *WIDE_C]:
        grid = classification_grid(k, c)
        for a, b in product(range(n), repeat=2):
            assert grid[a, b] == GRAY_LEVELS[classify_triangle(a, b, c).kind], (k, c, a, b)


@pytest.mark.parametrize("k", [8, 9])
def test_grid_at_dtype_edges(k):
    n = 1 << k
    grid = classification_grid(k, n - 1, max_k=k)
    for a, b in product(range(n), repeat=2):
        assert grid[a, b] == GRAY_LEVELS[classify_triangle(a, b, n - 1).kind]
    for c in (n, *WIDE_C):
        grid = classification_grid(k, c, max_k=k)
        assert (grid == GRAY_LEVELS[TriangleClass.LOOSE]).all()
        for a, b in ((0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)):
            assert classify_triangle(a, b, c).kind is TriangleClass.LOOSE


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


def _joined_blocks(u, bits, s, size, tight, loose):
    # the definition of a block table's entry: one join over the 0 digits of u
    return b"".join((loose, tight)[s >> j & 1] * (size << j) for j in range(bits) if not u >> j & 1)


def _pieces_joined_per_row(k, s, flat, tight, loose):
    # pieces as built with one join per small row and one per run, no tables
    lo = k // 2
    hi, m = k - lo, 1 << lo
    flat, tight, loose = bytes([flat]), bytes([tight]), bytes([loose])
    rows = [
        loose * (u := s % m ^ x) + flat + _joined_blocks(u, lo, s, 1, tight, loose) for x in range(m)
    ]
    grid = []
    for u in (s >> lo ^ x for x in range(1 << hi)):
        before, after = loose * (u * m), _joined_blocks(u, hi, s >> lo, m, tight, loose)
        run = [after + before] * (2 * m + 1)
        run[0], run[1::2], run[-1] = before, rows, after
        grid += run
    return grid


@pytest.mark.parametrize("size", [1, 4])
@pytest.mark.parametrize("bits", range(7))
def test_block_table_entry_u_is_the_join_over_the_0_digits_of_u(bits, size):
    for s in range(1 << bits + 1):
        table = _kernel._blocks(bits, s, size, b"T", b"L")
        assert len(table) == 1 << bits
        for u, entry in enumerate(table):
            assert entry == _joined_blocks(u, bits, s, size, b"T", b"L"), (bits, s, size, u)


@pytest.mark.parametrize("k", range(9))
def test_pieces_equal_the_pieces_joined_per_row(k):
    for s in range(1 << k):
        assert _kernel.pieces(k, s, 0, 1, 2) == _pieces_joined_per_row(k, s, 0, 1, 2), (k, s)


@pytest.mark.parametrize("k", range(7))
def test_pgm_chunks_render_and_grid_assemble_the_same_cells(k):
    # the CLI's pieces as written, render_pgm's fill or join, and the grid's fill or join
    n = 1 << k
    for c in [*range(2 * n + 2), *WIDE_C]:
        data = render_pgm(k, c)
        assert data == b"".join(_pgm_chunks(k, c)), (k, c)
        grid = classification_grid(k, c)
        assert grid.dtype == "uint8" and grid.shape == (n, n) and grid.flags.writeable, (k, c)
        assert data[-(n * n) :] == grid.tobytes(), (k, c)


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
