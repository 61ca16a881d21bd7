from functools import reduce
from itertools import product
from operator import xor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nimtriples import Move, advise_move, winning_moves

piles = st.lists(st.integers(min_value=0, max_value=1 << 80), min_size=1, max_size=6)


def test_advise_examples():
    assert advise_move([5, 1, 2]) == Move(pile=0, new_size=3)
    assert advise_move([3, 1, 2]) is None
    assert advise_move([1, 1, 1]) == Move(pile=0, new_size=0)
    assert advise_move([1, 2, 4, 7]) is None
    assert advise_move([5]) == Move(pile=0, new_size=0)
    assert advise_move([0]) is None


def test_advise_rejects_empty_position():
    with pytest.raises(ValueError):
        advise_move([])


def test_advise_picks_leftmost_pile():
    # every pile admits a winning reduction; the first must be chosen
    assert advise_move([3, 3, 1, 1, 1]) == Move(pile=0, new_size=2)
    assert advise_move([1, 1, 1]) == Move(pile=0, new_size=0)


@given(piles)
def test_advise_is_sound(position):
    total = reduce(xor, position)
    move = advise_move(position)
    if total == 0:
        assert move is None
    else:
        assert move is not None
        assert move.new_size < position[move.pile]
        successor = list(position)
        successor[move.pile] = move.new_size
        assert reduce(xor, successor) == 0


def test_winning_moves_examples():
    assert winning_moves([2, 2, 3]) == [(0, 1), (1, 1), (2, 0)]
    assert winning_moves([1, 2, 3]) == []
    assert winning_moves([5, 1, 2]) == [(0, 3)]
    assert winning_moves([1, 1, 1]) == [(0, 0), (1, 0), (2, 0)]


@pytest.mark.parametrize("position", [[1, 2], [1, 2, 3, 4]])
def test_winning_moves_requires_three_piles(position):
    with pytest.raises(ValueError):
        winning_moves(position)


def test_winning_moves_exhaustive_small():
    for position in product(range(16), repeat=3):
        moves = winning_moves(list(position))
        total = reduce(xor, position)
        expected = []
        for i, size in enumerate(position):
            for smaller in range(size):
                rest = list(position)
                rest[i] = smaller
                if reduce(xor, rest) == 0:
                    expected.append((i, smaller))
        assert moves == expected
        assert (total == 0) == (moves == [])
