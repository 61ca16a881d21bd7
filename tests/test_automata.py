"""The paper's classification at every width, decided by a finite automaton on digits.

Each statement compares digits only, read from the top digit down, so an
automaton that reads one digit triple per step decides it for every width at
once (Büchi 1960).  Its state is three comparators, of ``a`` against
``b ^ c``, ``b`` against ``a ^ c`` and ``c`` against ``a ^ b``, each "equal so
far", "greater" or "less".  A comparator leaves "equal so far" at the first
digit where its two numbers differ and keeps its verdict after that: the
definition of comparing two naturals written with the same number of digits.
A triple of any width, with leading zeros, is a path from the start state, so
what holds in every reachable state holds for every triple of naturals.
"""

from itertools import product

from nimtriples import CASE_TABLE, VertexStatus, classify_vertex

EQUAL, GREATER, LESS = "=", ">", "<"
START = (EQUAL, EQUAL, EQUAL)
DIGITS = list(product((0, 1), repeat=3))
_STATUS = {GREATER: VertexStatus.LARGE, EQUAL: VertexStatus.ALIGNED, LESS: VertexStatus.SMALL}


def step(state, digits):
    """The comparators after one more digit triple, the top digit read first."""
    a, b, c = digits
    pairs = ((a, b ^ c), (b, a ^ c), (c, a ^ b))
    return tuple(
        verdict if verdict != EQUAL else GREATER if x > y else LESS if x < y else EQUAL
        for verdict, (x, y) in zip(state, pairs)
    )


def reachable():
    """Every state some digit string leads to from the start."""
    seen, todo = {START}, [START]
    while todo:
        state = todo.pop()
        for digits in DIGITS:
            after = step(state, digits)
            if after not in seen:
                seen.add(after)
                todo.append(after)
    return seen


STATES = reachable()


def test_five_states_are_reachable_flat_tight_and_three_loose():
    flat, tight = START, (GREATER,) * 3
    loose = {(GREATER, LESS, LESS), (LESS, GREATER, LESS), (LESS, LESS, GREATER)}
    assert STATES == {flat, tight, *loose}


def test_no_reachable_state_has_every_entry_below_the_nim_sum_of_the_other_two():
    # the paper's fact, at every width: one entry is at least the Nim sum of the other two
    assert all(state != (LESS,) * 3 for state in STATES)


def test_an_aligned_vertex_makes_every_vertex_aligned():
    # no state mixes "equal so far" with a decided comparator: flat, or no vertex aligned
    assert all(len(set(state)) == 1 or EQUAL not in state for state in STATES)


def test_the_case_table_is_the_start_states_transitions():
    # the first digit triple that leaves the start is the discriminant's; one that stays there
    # balances, and is a contradiction row
    derived = {}
    for digits in DIGITS:
        after = step(START, digits)
        derived[digits] = None if after == START else tuple(_STATUS[v] for v in after)
    assert derived == CASE_TABLE


def test_each_path_ends_in_the_statuses_of_its_triple():
    # the comparators mean what classify_vertex computes: every triple of 4-bit entries
    for a, b, c in product(range(16), repeat=3):
        state = START
        for i in reversed(range(4)):
            state = step(state, (a >> i & 1, b >> i & 1, c >> i & 1))
        statuses = (classify_vertex(a, b, c), classify_vertex(b, a, c), classify_vertex(c, a, b))
        assert tuple(_STATUS[v] for v in state) == statuses
