"""The numpy bit-rule kernel against classify_triangle and the case table."""

from itertools import product

import numpy as np
import pytest

from nimtriples import (
    CASE_TABLE,
    GRAY_LEVELS,
    TriangleClass,
    VertexStatus,
    bit,
    classification_grid,
    classify_triangle,
)
from nimtriples import _kernel

WIDE_C = (1 << 61, 1 << 62, 1 << 70)


def kernel_kind(flat, tight):
    if flat:
        return TriangleClass.FLAT
    return TriangleClass.TIGHT if tight else TriangleClass.LOOSE


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kernel_classify_and_case_table_agree_exhaustively(k):
    lane = _kernel.lane(k)
    for a in range(1 << k):
        flat, tight = _kernel.flat_tight(a, lane, lane)
        for b, c in product(range(1 << k), repeat=2):
            result = classify_triangle(a, b, c)
            assert kernel_kind(flat[b, c], tight[b, c]) is result.kind
            if result.kind is TriangleClass.FLAT:
                continue
            j = result.discriminant
            row = CASE_TABLE[(bit(a, j), bit(b, j), bit(c, j))]
            assert row == result.statuses
            assert (row.count(VertexStatus.LARGE) == 3) == bool(tight[b, c])


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_grid_matches_classify_for_every_small_and_wide_c(k):
    n = 1 << k
    for c in [*range(n + 1), *WIDE_C]:
        grid = classification_grid(k, c)
        for a, b in product(range(n), repeat=2):
            assert grid[a, b] == GRAY_LEVELS[classify_triangle(a, b, c).kind], (k, c, a, b)


@pytest.mark.parametrize(
    ("k", "dtype"), [(0, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16)]
)
def test_lane_dtype_is_the_narrowest(k, dtype):
    lane = _kernel.lane(k)
    assert lane.dtype == dtype
    assert lane[-1] == (1 << k) - 1


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


def test_kernel_at_k16_edges():
    lane = _kernel.lane(16)
    rows = lane[[0, 1, 1 << 15, (1 << 16) - 2, (1 << 16) - 1]]
    cols = np.concatenate([lane[:48], lane[(1 << 15) - 16 : (1 << 15) + 16], lane[-48:]])
    for s in (0, 1, (1 << 15) + 1, (1 << 16) - 1):
        flat, tight = _kernel.flat_tight(s, rows, cols)
        for i, x in enumerate(rows.tolist()):
            for j, y in enumerate(cols.tolist()):
                kind = classify_triangle(s, x, y).kind
                assert kernel_kind(flat[i, j], tight[i, j]) is kind, (s, x, y)


def test_row_blocks_cover_every_row_once():
    for n in (1, 2, 256, 4096, 1 << 16, 1 << 17):
        blocks = _kernel.row_blocks(n)
        assert blocks[0].start == 0 and min(blocks[-1].stop, n) == n
        assert all(x.stop == y.start for x, y in zip(blocks, blocks[1:]))
        assert all((x.stop - x.start) * n <= max(_kernel.BLOCK, n) for x in blocks)
