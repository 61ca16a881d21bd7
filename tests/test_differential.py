"""Every route to a triangle's class agrees: render pixel, classifier, advisor, case table."""

from hypothesis import given
from hypothesis import strategies as st

from nimtriples import (
    CASE_TABLE,
    GRAY_LEVELS,
    TriangleClass,
    VertexStatus,
    bit,
    classify_triangle,
    render_pgm,
    winning_moves,
)

MAX_K = 10
MOVES = {TriangleClass.FLAT: 0, TriangleClass.LOOSE: 1, TriangleClass.TIGHT: 3}

# c below 2**k, around the 64-bit word, and far past it
any_c = st.one_of(
    st.integers(min_value=0, max_value=1 << MAX_K),
    st.integers(min_value=(1 << 60) - 8, max_value=(1 << 66)),
    st.integers(min_value=0, max_value=1 << 300),
)


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
    j = result.discriminant
    assert CASE_TABLE[(bit(a, j), bit(b, j), bit(c, j))] == result.statuses
    return result


@given(st.integers(min_value=0, max_value=MAX_K), any_c, st.data())
def test_render_pixel_classifier_advisor_and_case_table_agree(k, c, data):
    n = 1 << k
    pgm = render_pgm(k, c, max_k=MAX_K)
    header = len(pgm) - n * n
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b in data.draw(st.lists(cells, min_size=1, max_size=8)):
        result = assert_routes_agree(a, b, c)
        assert pgm[header + a * n + b] == GRAY_LEVELS[result.kind]


@given(any_c, any_c, any_c)
def test_wide_triples_agree_without_a_grid(a, b, c):
    assert_routes_agree(a, b, c)
