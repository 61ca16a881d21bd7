"""The byte-grid kernel against classify_triangle and the case table."""

import random
from itertools import product

import pytest

from nimtriples import (
    CASE_TABLE,
    GRAY_LEVELS,
    TriangleClass,
    VertexStatus,
    bit,
    classification_grid,
    classify_triangle,
    render_pgm,
)
from nimtriples import _kernel

WIDE_C = (1 << 61, 1 << 62, 1 << 70)

KIND = {0: TriangleClass.FLAT, 1: TriangleClass.TIGHT, 2: TriangleClass.LOOSE}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kernel_classify_and_case_table_agree_exhaustively(k):
    n = 1 << k
    for a in range(n):
        cells = b"".join(_kernel.pieces(k, a, 0, 1, 2))
        assert len(cells) == n * n
        for b, c in product(range(n), repeat=2):
            result = classify_triangle(a, b, c)
            assert KIND[cells[b * n + c]] is result.kind
            if result.kind is TriangleClass.FLAT:
                continue
            j = result.discriminant
            row = CASE_TABLE[(bit(a, j), bit(b, j), bit(c, j))]
            assert row == result.statuses
            assert (row.count(VertexStatus.LARGE) == 3) == (cells[b * n + c] == 1)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_grid_matches_classify_for_every_small_and_wide_c(k):
    n = 1 << k
    for c in [*range(n + 1), *WIDE_C]:
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


def test_pieces_split_each_top_row_in_two():
    for k in range(1, 6):
        n = 1 << k
        for s in range(n):
            cells = _kernel.pieces(k, s, 0, 1, 2)
            assert [len(piece) for piece in cells] == [n // 2] * (2 * n)
