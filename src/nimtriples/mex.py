"""The exclusion-set view of Nim addition and the greedy minimal table.

Lowering one operand of a XOR b in every possible way yields the exclusion
set {x XOR b : x < a} united with {a XOR y : y < b}.  The Nim sum itself
never lands in that set (XOR cancels), and every smaller natural does, so
a XOR b is exactly the set's minimum excludant.  The same idea drives the
greedy table: filling an n-by-n grid row-major with the smallest value that
keeps all rows and columns repetition-free reproduces the XOR table entry
for entry.  Repetition-free rows and columns are unique solvability of
equations, which is why XOR is the smallest such binary operation.  The
greedy table is symmetric by its own recurrence, so the fill computes the
upper triangle and builds each row's mirrored prefix from the rows above
it, once per row.  No value of the table passes 2n - 2, so its cells share
the int objects of one list of 2n - 1 values.  The greedy route still
checks the XOR theorem, because verify_table_equals_xor compares all
n * n cells.  It compares them a row at a time with expected XOR rows that
are built by swapping aligned blocks of earlier rows, never by a XOR per
cell, and table_to_text converts each distinct value to decimal once.
"""

from .limits import MEX_ENUMERATION_CAP, CapExceeded, checked
from .natural import require_natural, shown

__all__ = [
    "exclusion_set",
    "greedy_minimal_table",
    "mex_oracle",
    "table_to_text",
    "verify_table_equals_xor",
]


def _checked_operands(a: int, b: int) -> tuple[int, int]:
    """``a`` and ``b`` as naturals, or CapExceeded when a + b passes MEX_ENUMERATION_CAP."""
    a = require_natural(a)
    b = require_natural(b)
    if a + b > MEX_ENUMERATION_CAP:
        raise CapExceeded(
            f"exclusion set for ({shown(a)}, {shown(b)}) needs {shown(a + b)} entries,"
            f" cap is {MEX_ENUMERATION_CAP}"
        )
    return a, b


def exclusion_set(a: int, b: int) -> set[int]:
    """Every value reachable from (a, b) by lowering one operand of XOR.

    Holds up to a + b elements, hence the cap; CapExceeded signals the
    caller to use the direct XOR instead of enumerating.
    """
    a, b = _checked_operands(a, b)
    return {x ^ b for x in range(a)} | {a ^ y for y in range(b)}


def _exclusion_marks(a: int, b: int) -> bytearray:
    """Indicator bytes of exclusion_set(a, b) over range(a + b + 1), marked by aligned blocks.

    Block lemma: XOR with b fixes the bits above i and permutes the bits
    below i.  Take a set bit i of a and p = a >> (i + 1) << (i + 1), a with
    bits i and below cleared.  The x in the run [p, p + 2**i) are exactly
    the x < a whose highest bit differing from a is i; the runs over all
    set bits i of a cover range(a) once each.  For x in one run, x ^ b has
    the bits of p ^ b from i upward and takes every pattern below i once,
    so the run maps onto the aligned block [q, q + 2**i) with
    q = (p ^ b) >> i << i.  Hence {x ^ b : x < a} is the union of
    popcount(a) aligned blocks, and {a ^ y : y < b} of popcount(b) with
    the roles swapped.  Every member is below a + b (see mex_oracle), so
    each slice assignment stays inside the a + b + 1 bytes and the fill
    writes at most a + b of them.
    """
    present = bytearray(a + b + 1)
    marks = memoryview(present)  # a slice of the bytearray itself would copy each block first
    ones = memoryview(b"\x01" * max(a, b))  # the longest block is at most max(a, b)
    for lowered, other in ((a, b), (b, a)):
        for i in range(lowered.bit_length()):
            if lowered >> i & 1:
                start = ((lowered >> (i + 1) << (i + 1)) ^ other) >> i << i
                marks[start : start + (1 << i)] = ones[: 1 << i]
    return present


def mex_oracle(a: int, b: int) -> int:
    """Smallest natural outside exclusion_set(a, b).

    Agrees with a XOR b everywhere.  This is the validation route, not the
    computation route: it costs Theta(a + b) while XOR costs O(bits).  It
    marks the set's members in a bytearray without building the set: every
    x ^ b with x < a is at most x + b < a + b, and likewise every a ^ y with
    y < b, so a + b + 1 flags hold every member and at least one clear flag.
    The members are marked by the aligned blocks of _exclusion_marks, a
    fact about XOR as a bijection only, never the claim mex == XOR itself.
    """
    a, b = _checked_operands(a, b)
    return _exclusion_marks(a, b).index(0)


def greedy_minimal_table(n: int) -> list[list[int]]:
    """The n-by-n table filled row-major, each cell the smallest legal value.

    A value is legal when it does not already appear in the current row or
    the current column, so the filled prefix is repetition-free in every row
    and column at all times:

        T[a][b] = mex({T[a][y] : y < b} | {T[x][b] : x < a}).

    Symmetry: T[b][a] = T[a][b].  By strong induction on a + b: every cell
    in the two prefix sets of (b, a), {T[b][y] : y < a} and {T[x][a] : x < b},
    has an index sum below a + b, so the hypothesis turns them into
    {T[y][b] : y < a} and {T[a][x] : x < b}, the column and row sets of
    (a, b).  Equal sets have equal mexes.  The proof uses the recurrence
    alone, never XOR.

    Hence only the cells with b >= a are computed.  Row a starts as the
    list [r[a] for r in rows] over the rows already filled, built once per
    row: T[x][a] for x < a, which by symmetry is row a's own prefix.
    col_used[b] holds the values of column b above the current row; at the
    start of row a, col_used[a] holds that same prefix, so the row mask
    starts from it.  Greedy choice per cell: the lowest clear bit of the
    union of the row and column occupancy masks; used ^ (used + 1) is that
    bit and the set bits below it, so its bit length less one is the bit's
    position.  The row's new column masks replace col_used[a:] in one slice
    assignment at the end of the row.

    Width: the row and column sets of (a, b) hold the values of b + a
    earlier cells, so at most a + b members, and the mex of a set of at most
    a + b naturals is at most a + b <= 2n - 2 (at n = 5 the cell (3, 4)
    holds 7, past n).  So every value is in range(2n - 1) and every mask
    fits in 2n - 1 bits, and each cell takes its value from the shared list
    ``values`` and its mask bit from ``bits``, both indexed by the mex: the
    table holds at most 2n - 1 distinct int objects, not one for each cell
    whose value is past the interpreter's small ints.  The fill costs n * n
    cells of memory and about half as many cells of time, so n above
    TABLE_MAX_N raises CapExceeded before anything is allocated.
    """
    n = checked("table", n)
    values = list(range(2 * n - 1))
    bits = [1 << value for value in values]
    col_used = [0] * n
    rows = []
    for a in range(n):
        row = [r[a] for r in rows]
        put = row.append
        masks = []
        keep = masks.append
        row_used = col_used[a]
        for col in col_used[a:]:
            used = row_used | col
            value = (used ^ (used + 1)).bit_length() - 1
            taken = bits[value]
            row_used |= taken
            put(values[value])
            keep(col | taken)
        col_used[a:] = masks
        rows.append(row)
    return rows


def _xor_rows(count: int, width: int) -> list[int]:
    """The rows ``[a ^ b for b in range(width)]`` for a in range(count), end to end in one list.

    ``width`` is a power of two and at least ``count``.  Swap identity: for
    a >= 1 with top bit h = 2**k, a = h + r with r < h, and
    (h + r) ^ b = r ^ (b ^ h).  XOR with h flips bit k of b, which maps each
    aligned 2h-block onto itself and swaps its two halves of length h.  So
    row a is row a - h with its aligned h-blocks swapped pairwise: every
    row is written as slices of an earlier row, width / h slices for a row
    of top bit h and width slices for each of the log2(width) top bits.
    The list starts as row 0 repeated, and the swaps of row a cover all of
    it.  One list, not one per row, so that building the rows allocates
    one object the garbage collector tracks, not enough of them to set off
    a collection that would walk the table being checked.
    """
    flat = list(range(width)) * count
    for a in range(1, count):
        h = 1 << (a.bit_length() - 1)
        row, base = a * width, (a - h) * width
        for start in range(0, width, 2 * h):
            flat[row + start : row + start + h] = flat[base + start + h : base + start + 2 * h]
            flat[row + start + h : row + start + 2 * h] = flat[base + start : base + start + h]
    return flat


def verify_table_equals_xor(rows: list[list[int]]) -> tuple[bool, tuple[int, int] | None]:
    """Check entry (a, b) == a XOR b everywhere; report the first mismatch row-major.

    ``rows`` is an n-by-n table, n rows of n entries each, as
    greedy_minimal_table returns; any other shape raises ValueError.  Each
    row is compared with its expected row from _xor_rows as one list
    comparison, and only a row that compares unequal is scanned cell by
    cell for its first ``value != a ^ b``, so every cell is still checked
    against an exact a XOR b.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"table of {n} rows is not {n} by {n}")
    width = 1 << (n - 1).bit_length()
    want = _xor_rows(n, width)
    for a, row in enumerate(rows):
        start = a * width
        if row != want[start : start + n]:
            for b, value in enumerate(row):
                if value != a ^ b:
                    return False, (a, b)
    return True, None


class _Decimals(dict):
    """Decimal text of each value, converted by ``str`` on first lookup and kept."""

    def __missing__(self, value: int) -> str:
        text = self[value] = str(value)
        return text


def table_to_text(rows: list[list[int]]) -> str:
    """One line per row, space-separated decimal entries, no trailing newline.

    Each distinct value is converted to decimal once.  Entries must be
    hashable, and entries equal in value share the text of the first one
    seen: ``True`` after ``1`` prints ``1``.  For tables of ints the text is
    ``str`` of each entry.  A ValueError from ``str`` for an int past the
    interpreter's digit limit propagates.
    """
    names = _Decimals()
    return "\n".join(" ".join(map(names.__getitem__, row)) for row in rows)
