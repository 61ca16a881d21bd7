"""Every scalar route to a triangle's class against ``classify_triangle``, over one set of triples.

``ROUTES`` holds one check per route, and each runs over all of ``TRIPLES``:
the bit rule against the comparison definition of ``classify_vertex``, the
discriminant against a scan of the digits, ``reorder_dominant``,
``winning_moves`` and ``advise_move`` against the statuses, and the
classification of each permutation of the triple.  The case table's route is
checked against the classifier's statuses in ``tests/test_acceptance.py``,
exhaustively under 32 and at these widths.
"""

import random
from itertools import permutations, product

import pytest

from nimtriples import (
    CASE_TABLE,
    TriangleClass,
    VertexStatus,
    advise_move,
    bit,
    case_table_lookup,
    classify_triangle,
    classify_vertex,
    reorder_dominant,
    winning_moves,
)

from conftest import WORD_EDGES, of_width, random_entry

L, A, S = VertexStatus.LARGE, VertexStatus.ALIGNED, VertexStatus.SMALL


def _triples():
    """Every triple of entries below 16 and every triple of word edges, then 1000 seeded ones
    of 1 to 300 bits an entry and 1000 drawn by ``random_entry``; each also flat, with
    c = a ^ b, and each once."""
    rng = random.Random(300)
    seeded = [tuple(of_width(rng, rng.randrange(1, 301)) for _ in range(3)) for _ in range(1000)]
    drawn = [tuple(random_entry(rng) for _ in range(3)) for _ in range(1000)]
    base = [*product(range(16), repeat=3), *product(WORD_EDGES, repeat=3), *seeded, *drawn]
    return list(dict.fromkeys(t for a, b, c in base for t in ((a, b, c), (a, b, a ^ b))))


TRIPLES = _triples()

# the index pairs of the other two entries, vertex by vertex
_OTHERS = ((1, 2), (0, 2), (0, 1))
# the class by the number of large vertices
_KINDS = {0: TriangleClass.FLAT, 1: TriangleClass.LOOSE, 3: TriangleClass.TIGHT}


def test_classify_vertex_examples():
    assert classify_vertex(5, 1, 2) is L
    assert classify_vertex(3, 1, 2) is A
    assert classify_vertex(1, 5, 2) is S


def _bit_rule(t, result):
    # the comparison definition: each vertex against the Nim sum of the other two
    compared = tuple(classify_vertex(t[i], t[j], t[k]) for i, (j, k) in enumerate(_OTHERS))
    assert result.statuses == compared, t
    assert result.kind is _KINDS[result.statuses.count(L)], t
    assert (result.discriminant is None) == (result.kind is TriangleClass.FLAT), t


def _discriminant(t, result):
    # the literal definition: the largest digit position where a disagrees with b XOR c
    a, b, c = t
    top = max(a.bit_length(), b.bit_length(), c.bit_length())
    scan = (i for i in reversed(range(top)) if bit(a, i) != bit(b, i) ^ bit(c, i))
    assert result.discriminant == next(scan, None), t


def _reorder(t, result):
    # the leftmost entry that is >= the Nim sum of the other two goes first, and the other
    # two keep their order
    first = next(i for i, status in enumerate(result.statuses) if status is not S)
    perm = (first, *_OTHERS[first])
    assert reorder_dominant(*t) == (tuple(t[i] for i in perm), perm), t


def _moves(t, result):
    # one move per large vertex, down to the Nim sum of the other two; the advice is the first
    moves = [(i, t[j] ^ t[k]) for i, (j, k) in enumerate(_OTHERS) if result.statuses[i] is L]
    assert winning_moves(t) == moves, t
    assert advise_move(t) == (moves[0] if moves else None), t


def _equivariance(t, result):
    for perm in permutations(range(3)):
        statuses = tuple(result.statuses[i] for i in perm)
        want = (statuses, result.kind, result.discriminant)
        assert classify_triangle(*(t[i] for i in perm)) == want, (t, perm)


ROUTES = {
    "bit-rule": _bit_rule,
    "discriminant": _discriminant,
    "reorder": _reorder,
    "moves": _moves,
    "equivariance": _equivariance,
}


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES)
def test_route_agrees_with_classify_triangle(route):
    for t in TRIPLES:
        route(t, classify_triangle(*t))


def test_case_table_contradiction_rule():
    # a row is a contradiction exactly when the three digits XOR to balance
    for digits in product((0, 1), repeat=3):
        outcome = case_table_lookup(*digits)
        assert (outcome is None) == (digits[0] == digits[1] ^ digits[2])
    assert len(CASE_TABLE) == 8


def test_case_table_rejects_non_digits():
    with pytest.raises(ValueError):
        case_table_lookup(2, 0, 0)
    with pytest.raises(ValueError):
        case_table_lookup(0, -1, 0)
    # digits are the ints 0 and 1 only, not bools, floats or strings
    for digits in [(True, 0, 0), (1, False, 0), (1, 0, 1.0), (0.0, 0, 1), (0, "1", 0)]:
        with pytest.raises(ValueError):
            case_table_lookup(*digits)
