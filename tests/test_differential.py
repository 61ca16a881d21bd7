"""Every route to a triangle's class agrees: render pixel, classifier and advisor.

The case table's route is checked against the classifier's statuses in
``tests/test_acceptance.py``, exhaustively under 32 and at these widths.
"""

import random
from itertools import product

from nimtriples import (
    GRAY_LEVELS,
    TriangleClass,
    VertexStatus,
    classify_triangle,
    render_pgm,
    winning_moves,
)

from conftest import WORD_EDGES, random_entry

MAX_K = 10
MOVES = {TriangleClass.FLAT: 0, TriangleClass.LOOSE: 1, TriangleClass.TIGHT: 3}


def assert_routes_agree(a, b, c):
    result = classify_triangle(a, b, c)
    moves = winning_moves((a, b, c))
    assert len(moves) == MOVES[result.kind]
    assert [m.pile for m in moves] == [
        i for i, s in enumerate(result.statuses) if s is VertexStatus.LARGE
    ]
    if result.kind is TriangleClass.FLAT:
        assert result.discriminant is None and a ^ b ^ c == 0
    return result


def test_render_pixel_classifier_and_advisor_agree():
    # for each k, c is each word edge, 2**k - 1, 2**k and ten seeded entries; and for each
    # grid, the cells are its two corners on the diagonal and six seeded ones
    rng = random.Random(MAX_K)
    for k in range(MAX_K + 1):
        n = 1 << k
        for c in [*WORD_EDGES, n - 1, n, *(random_entry(rng) for _ in range(10))]:
            pgm = render_pgm(k, c, max_k=MAX_K)
            header = len(pgm) - n * n
            seeded = [(rng.randrange(n), rng.randrange(n)) for _ in range(6)]
            for a, b in [(0, 0), (n - 1, n - 1), *seeded]:
                result = assert_routes_agree(a, b, c)
                assert pgm[header + a * n + b] == GRAY_LEVELS[result.kind], (k, c, a, b)


def test_wide_triples_agree_without_a_grid():
    rng = random.Random(300)
    seeded = [tuple(random_entry(rng) for _ in range(3)) for _ in range(1000)]
    for a, b, c in [*product(range(8), repeat=3), *product(WORD_EDGES, repeat=3), *seeded]:
        assert_routes_agree(a, b, c)
