import gc
import random
from itertools import product

import pytest

from nimtriples import (
    MEX_ENUMERATION_CAP,
    CapExceeded,
    exclusion_set,
    greedy_minimal_table,
    mex_oracle,
    nim_sum,
    table_to_text,
    verify_table_equals_xor,
)
from nimtriples.mex import _exclusion_marks, _xor_rows


def _pairs(side, top, count):
    """Every pair under ``side`` and of 0, ``top - 1`` and ``top``; ``count`` seeded to ``top``."""
    rng = random.Random(top)
    seeded = [(rng.randint(0, top), rng.randint(0, top)) for _ in range(count)]
    return [*product(range(side), repeat=2), *product((0, top - 1, top), repeat=2), *seeded]


def test_exclusion_set_examples():
    assert exclusion_set(0, 0) == set()
    assert exclusion_set(2, 3) == {0, 2, 3}
    assert exclusion_set(1, 1) == {1}


def test_exclusion_set_is_both_lowering_directions():
    a, b = 2, 3
    lowered_a = {x ^ b for x in range(a)}
    lowered_b = {a ^ y for y in range(b)}
    assert exclusion_set(a, b) == lowered_a | lowered_b


def test_exclusion_set_never_contains_the_sum():
    for a, b in _pairs(64, 400, 200):
        excluded = exclusion_set(a, b)
        assert len(excluded) <= a + b, (a, b)
        assert nim_sum(a, b) not in excluded, (a, b)


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        exclusion_set(1 << 20, 1)
    with pytest.raises(CapExceeded):
        mex_oracle(1 << 20, 1)
    with pytest.raises(CapExceeded, match=rf"needs {MEX_ENUMERATION_CAP + 1} entries, cap is"):
        exclusion_set(MEX_ENUMERATION_CAP - 4, 5)
    assert mex_oracle(MEX_ENUMERATION_CAP - 5, 5) == (MEX_ENUMERATION_CAP - 5) ^ 5


@pytest.mark.parametrize("call", [exclusion_set, mex_oracle])
def test_the_cap_is_the_constant(call):
    # no keyword raises the cap: a + b above MEX_ENUMERATION_CAP is always refused
    with pytest.raises(TypeError):
        call(1, 1, cap=1 << 40)


def test_mex_oracle_examples():
    assert mex_oracle(0, 0) == 0
    assert mex_oracle(2, 3) == 1
    assert mex_oracle(1, 1) == 0


@pytest.mark.parametrize("a", [0, 3, MEX_ENUMERATION_CAP // 2 - 1, MEX_ENUMERATION_CAP])
def test_mex_oracle_at_the_cap(a):
    b = MEX_ENUMERATION_CAP - a
    assert mex_oracle(a, b) == a ^ b


def test_block_marks_are_the_exclusion_set():
    for a, b in _pairs(32, 4096, 100):
        excluded = exclusion_set(a, b)
        assert _exclusion_marks(a, b) == bytes(v in excluded for v in range(a + b + 1)), (a, b)


def test_greedy_table_tiny():
    assert greedy_minimal_table(1) == [[0]]
    assert greedy_minimal_table(2) == [[0, 1], [1, 0]]


def test_greedy_table_four():
    assert greedy_minimal_table(4) == [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_greedy_table_rows_and_columns_repetition_free(n):
    rows = greedy_minimal_table(n)
    for row in rows:
        assert len(set(row)) == n
    for b in range(n):
        assert len({rows[a][b] for a in range(n)}) == n


def test_greedy_entries_are_minimal():
    # every entry is the mex of its row prefix and the column above it:
    # each smaller value collides there and the entry itself does not
    n = 48
    rows = greedy_minimal_table(n)
    for a in range(n):
        for b in range(n):
            entry = rows[a][b]
            prefix = set(rows[a][:b]) | {rows[r][b] for r in range(a)}
            assert entry not in prefix
            assert prefix.issuperset(range(entry))


def _row_major_fill(n):
    """Every cell computed row-major, without the symmetry: the reference fill."""
    col_used = [0] * n
    rows = []
    for _ in range(n):
        row_used = 0
        row = []
        for b in range(n):
            used = row_used | col_used[b]
            value = (used ^ (used + 1)).bit_length() - 1
            row.append(value)
            taken = 1 << value
            row_used |= taken
            col_used[b] |= taken
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", [*range(1, 65), 100, 257, 512, 1000, 1024])
def test_symmetric_fill_matches_the_row_major_fill(n):
    # at n = 1000 the values reach 1023, past n
    assert greedy_minimal_table(n) == _row_major_fill(n)


@pytest.mark.parametrize("n", [5, 100, 512])
def test_greedy_table_shares_at_most_2n_minus_1_int_objects(n):
    rows = greedy_minimal_table(n)
    assert len({id(value) for row in rows for value in row}) <= 2 * n - 1


def test_verify_table_equals_xor():
    assert verify_table_equals_xor(greedy_minimal_table(1)) == (True, None)
    assert verify_table_equals_xor(greedy_minimal_table(4)) == (True, None)
    tampered = greedy_minimal_table(4)
    tampered[1][1] = 3
    assert verify_table_equals_xor(tampered) == (False, (1, 1))


def test_table_to_text():
    assert table_to_text(greedy_minimal_table(2)) == "0 1\n1 0"
    assert table_to_text([[0]]) == "0"


@pytest.mark.parametrize("width", [1 << k for k in range(9)])
def test_xor_rows_are_the_xor_table(width):
    table = [a ^ b for a in range(width) for b in range(width)]
    for count in range(width + 1):
        assert _xor_rows(count, width) == table[: count * width]


def test_xor_rows_allocate_one_tracked_object():
    # a list per row would count 512 allocations towards a collection
    gc.disable()
    try:
        before = gc.get_count()[0]
        flat = _xor_rows(512, 512)
        after = gc.get_count()[0]
    finally:
        gc.enable()
    assert len(flat) == 512 * 512
    assert after - before <= 1


def _first_mismatch(rows):
    """The cell-by-cell check: the reference for verify_table_equals_xor."""
    for a, row in enumerate(rows):
        for b, value in enumerate(row):
            if value != a ^ b:
                return False, (a, b)
    return True, None


def test_verify_matches_the_cell_by_cell_check():
    # every n in 0..40, with 0, 1 and 2 seeded cells set to seeded values in -2..80
    rng = random.Random(40)
    for n, tampered in product(range(41), range(3)):
        rows = [[a ^ b for b in range(n)] for a in range(n)]
        for _ in range(tampered if n else 0):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.randint(-2, 80)
        want = _first_mismatch(rows)
        assert verify_table_equals_xor(rows) == want, rows
        assert verify_table_equals_xor([tuple(row) for row in rows]) == want, rows


@pytest.mark.parametrize("n", [1, 2, 3, 100, 256])
def test_verify_scans_only_an_unequal_row(n):
    # the cell-by-cell scan compares with !=, whole rows compare with ==
    scanned = []

    class Cell(int):
        def __ne__(self, other):
            scanned.append(self)
            return int.__ne__(self, other)

    rows = [[Cell(a ^ b) for b in range(n)] for a in range(n)]
    assert verify_table_equals_xor(rows) == (True, None)
    assert scanned == []
    rows[n - 1][0] = Cell(n)
    assert verify_table_equals_xor(rows) == (False, (n - 1, 0))
    assert scanned == [n]


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3], [3, 2, 1, 0]],
        [[0, 1], [1, 0, 3]],
        [[0, 1], [1, 0], [2, 3]],
        [[]],
    ],
    ids=["short row", "long row", "extra row", "empty row"],
)
def test_verify_refuses_a_table_that_is_not_square(rows):
    with pytest.raises(ValueError, match=rf"^table of {len(rows)} rows is not {len(rows)} by"):
        verify_table_equals_xor(rows)


def test_table_to_text_is_str_of_every_entry():
    # ten seeded tables of each height 0..12: rows of 0 to 12 entries, each in -300..300 or
    # in -2**200..2**200, half the time each
    rng = random.Random(200)
    bounds = ((-300, 300), (-(1 << 200), 1 << 200))
    for height in [*range(13)] * 10:
        widths = [rng.randint(0, 12) for _ in range(height)]
        rows = [[rng.randint(*rng.choice(bounds)) for _ in range(w)] for w in widths]
        assert table_to_text(rows) == "\n".join(" ".join(map(str, row)) for row in rows), rows


def test_table_to_text_names_equal_entries_once():
    assert table_to_text([[1, True], [True, 1]]) == "1 1\n1 1"
    assert table_to_text(iter([iter([3, 10**20]), (-3,)])) == "3 100000000000000000000\n-3"


def test_table_to_text_past_the_digit_limit_raises():
    with pytest.raises(ValueError):
        table_to_text([[10**5000]])
