import random
from itertools import permutations, product

import pytest

from nimtriples import (
    CASE_TABLE,
    TriangleClass,
    VertexStatus,
    bit,
    case_table_lookup,
    classify_triangle,
    classify_vertex,
    reorder_dominant,
)

from conftest import WORD_EDGES, of_width

L, A, S = VertexStatus.LARGE, VertexStatus.ALIGNED, VertexStatus.SMALL


def _triples(side):
    """Every triple of entries below ``side`` and every triple of word edges, then 1000 seeded
    ones of 1 to 300 bits an entry."""
    rng = random.Random(side)
    seeded = [tuple(of_width(rng, rng.randrange(1, 301)) for _ in range(3)) for _ in range(1000)]
    return [*product(range(side), repeat=3), *product(WORD_EDGES, repeat=3), *seeded]


def test_classify_vertex_examples():
    assert classify_vertex(5, 1, 2) is L
    assert classify_vertex(3, 1, 2) is A
    assert classify_vertex(1, 5, 2) is S


def _compared_statuses(a, b, c):
    # the comparison definition: each vertex against the Nim sum of the other two
    return (classify_vertex(a, b, c), classify_vertex(b, a, c), classify_vertex(c, a, b))


def _assert_bit_rule(triples):
    for a, b, c in triples:
        for t in ((a, b, c), (a, b, a ^ b)):  # each also flat, with c = a ^ b
            assert classify_triangle(*t).statuses == _compared_statuses(*t), t


def test_bit_rule_matches_comparison_definition():
    # every triple of word edges, and 200 seeded ones of 65 to 160 bits an entry
    rng = random.Random(160)
    wide = [tuple(of_width(rng, rng.randint(65, 160)) for _ in range(3)) for _ in range(200)]
    _assert_bit_rule([*product(WORD_EDGES, repeat=3), *wide])


def test_bit_rule_matches_comparison_definition_exhaustive():
    _assert_bit_rule(product(range(16), repeat=3))


def test_flat_triangle():
    result = classify_triangle(3, 1, 2)
    assert result.kind is TriangleClass.FLAT
    assert result.statuses == (A, A, A)
    assert result.discriminant is None


def test_loose_triangle():
    result = classify_triangle(5, 1, 2)
    assert result.kind is TriangleClass.LOOSE
    assert result.statuses == (L, S, S)
    assert result.discriminant == 2


def test_tight_triangle():
    result = classify_triangle(2, 2, 3)
    assert result.kind is TriangleClass.TIGHT
    assert result.statuses == (L, L, L)
    assert result.discriminant == 1


def test_all_ones_triangle_is_tight():
    result = classify_triangle(1, 1, 1)
    assert result.kind is TriangleClass.TIGHT
    assert result.statuses == (L, L, L)
    assert result.discriminant == 0


def _scan_discriminant(a, b, c):
    # literal definition: largest digit position where a disagrees with b XOR c
    for i in reversed(range(max(a.bit_length(), b.bit_length(), c.bit_length()))):
        if bit(a, i) != bit(b, i) ^ bit(c, i):
            return i
    return None


def test_discriminant_matches_digit_scan():
    for t in _triples(8):
        assert classify_triangle(*t).discriminant == _scan_discriminant(*t), t


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


def test_reorder_moves_dominant_to_front():
    assert reorder_dominant(1, 2, 7) == ((7, 1, 2), (2, 0, 1))


def test_reorder_keeps_flat_triple_in_place():
    assert reorder_dominant(3, 1, 2) == ((3, 1, 2), (0, 1, 2))


def test_reorder_prefers_leftmost_qualifier():
    assert reorder_dominant(2, 2, 3) == ((2, 2, 3), (0, 1, 2))


def test_reorder_postcondition():
    for t in _triples(16):
        (x, y, z), perm = reorder_dominant(*t)
        assert x >= y ^ z, t
        assert sorted(perm) == [0, 1, 2], t
        assert tuple(t[p] for p in perm) == (x, y, z), t


def test_classification_is_permutation_equivariant():
    for t in _triples(4):
        base = classify_triangle(*t)
        for perm in permutations(range(3)):
            result = classify_triangle(*(t[i] for i in perm))
            assert result.kind is base.kind, (t, perm)
            assert result.statuses == tuple(base.statuses[i] for i in perm), (t, perm)
            assert result.discriminant == base.discriminant, (t, perm)
