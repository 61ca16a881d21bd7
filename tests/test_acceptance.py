"""End-to-end acceptance suite.

Each test prints a one-line verdict (run with ``pytest -s`` to see them all)
and then asserts, so a failure is visible both in the report line and in the
pytest summary.  A passing verdict must also be a line of the README's
acceptance block, so the block is checked in the run that prints it.  The
checks are exhaustive at small widths and seeded at large widths; every bound
is checked exactly, timings against wall-clock budgets.
"""

import random
import time
from functools import reduce
from itertools import product
from operator import xor

from nimtriples import (
    advise_move,
    case_table_lookup,
    census,
    census_closed_form_check,
    classify_triangle,
    greedy_minimal_table,
    nim_sum,
    bit,
    exclusion_set,
    mex_oracle,
    verify_table_equals_xor,
    winning_moves,
)
from nimtriples.triangles import TriangleClass, VertexStatus

from conftest import WORD_EDGES, acceptance_block, of_width, random_entry


def report(name, ok, detail):
    line = f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, f"{name}: {detail}"
    assert line in acceptance_block(), f"the README's acceptance block lacks {line!r}"


def _large_count_check(triples):
    # flat: all three aligned; otherwise one or three large and none aligned
    nonflat = 0
    violations = 0
    for triple in triples:
        result = classify_triangle(*triple)
        if result.kind is TriangleClass.FLAT:
            violations += result.statuses != (VertexStatus.ALIGNED,) * 3
            continue
        nonflat += 1
        large = result.statuses.count(VertexStatus.LARGE)
        violations += large not in (1, 3) or VertexStatus.ALIGNED in result.statuses
    return nonflat, violations


def test_nonflat_triangles_have_one_or_three_large_vertices():
    side = 1 << 6
    rng = random.Random(1013)
    wide = [tuple(random_entry(rng) for _ in range(3)) for _ in range(10_000)]
    start = time.perf_counter()
    nonflat, small_violations = _large_count_check(product(range(side), repeat=3))
    wide_nonflat, wide_violations = _large_count_check(wide)
    elapsed = time.perf_counter() - start
    violations = small_violations + wide_violations
    report(
        "non-flat large count",
        violations == 0 and elapsed < 5.0,
        f"{nonflat} non-flat of {side ** 3} triples under {side} and {wide_nonflat} of "
        f"{len(wide)} wide ones, {violations} violations",
    )


def test_sum_vertex_forces_flat():
    side = 1 << 7
    rng = random.Random(160)
    wide = [tuple(of_width(rng, rng.randrange(64, 161)) for _ in range(2)) for _ in range(1000)]
    violations = 0
    for a, b in [*product(range(side), repeat=2), *wide]:
        result = classify_triangle(a, b, a ^ b)
        if result.kind is not TriangleClass.FLAT or result.discriminant is not None:
            violations += 1
        elif any(s is not VertexStatus.ALIGNED for s in result.statuses):
            violations += 1
    report(
        "sum vertex forces flat",
        violations == 0,
        f"{side * side} pairs under {side} and {len(wide)} of 64 to 160 bits, "
        f"{violations} violations",
    )


def _case_table_check(triples):
    checked = 0
    violations = 0
    for a, b, c in triples:
        result = classify_triangle(a, b, c)
        j = result.discriminant
        if j is None:
            continue
        checked += 1
        looked_up = case_table_lookup(bit(a, j), bit(b, j), bit(c, j))
        if looked_up is None or looked_up != result.statuses:
            violations += 1
    return checked, violations


def test_case_table_agrees_with_direct_statuses():
    side = 1 << 5
    rng = random.Random(31337)
    wide = [tuple(random_entry(rng) for _ in range(3)) for _ in range(10_000)]
    small_checked, small_violations = _case_table_check(product(range(side), repeat=3))
    wide_checked, wide_violations = _case_table_check(wide)
    violations = small_violations + wide_violations
    report(
        "case table consistency",
        violations == 0,
        f"{small_checked} non-flat triples under {side} and {wide_checked} of "
        f"{len(wide)} wide ones, {violations} violations",
    )


def test_mex_route_reproduces_the_sum():
    side = 1 << 7
    rng = random.Random(4096)
    far = [(rng.randrange(4097), rng.randrange(4097)) for _ in range(1000)]
    pairs = [*product(range(side), repeat=2), *far]
    mismatches = sum(mex_oracle(a, b) != (a ^ b) for a, b in pairs)
    missing = 0
    linkage_side = 1 << 6
    for a in range(linkage_side):
        for b in range(linkage_side):
            excluded = exclusion_set(a, b)
            missing += sum(c not in excluded for c in range(a ^ b))
    ok = mismatches == 0 and missing == 0
    report(
        "mex equals xor",
        ok,
        f"{side * side} pairs under {side} and {len(far)} under 4097 ({mismatches} mismatches), "
        f"linkage over {linkage_side * linkage_side} pairs ({missing} missing)",
    )


def test_greedy_table_is_the_xor_table():
    n = 256
    start = time.perf_counter()
    rows = greedy_minimal_table(n)
    elapsed = time.perf_counter() - start
    latin = all(len(set(row)) == n for row in rows) and all(
        len({rows[a][b] for a in range(n)}) == n for b in range(n)
    )
    matches, first_bad = verify_table_equals_xor(rows)
    ok = latin and matches and elapsed < 10.0
    report(
        "greedy table",
        ok,
        f"n={n} latin={latin} xor={'ok' if matches else first_bad}",
    )


def _random_position(rng):
    """1 to 6 piles, each up to 2**80; in half of them the last is the Nim sum of the rest."""
    piles = [rng.randrange((1 << rng.randrange(81)) + 1) for _ in range(rng.randrange(1, 7))]
    if rng.random() < 0.5:
        piles[-1] = reduce(xor, piles[:-1], 0)
    return piles


def _unsound(position, move):
    """Whether ``move`` breaks the law: None exactly where the Nim sum is 0, else a reduction
    of one pile that leaves Nim sum 0."""
    if reduce(xor, position) == 0:
        return move is not None
    if move is None:
        return True
    successor = list(position)
    successor[move.pile] = move.new_size
    return move.new_size >= position[move.pile] or reduce(xor, successor) != 0


def test_advisor_is_sound_on_the_small_cube():
    side = 1 << 5
    rng = random.Random(80)
    seeded = [_random_position(rng) for _ in range(10_000)]
    violations = 0
    for position in product(range(side), repeat=3):
        move = advise_move(list(position))
        moves = winning_moves(list(position))
        if len(moves) not in (0, 1, 3) or moves[:1] != ([] if move is None else [move]):
            violations += 1
        violations += _unsound(position, move)
    violations += sum(_unsound(position, advise_move(position)) for position in seeded)
    report(
        "advisor soundness",
        violations == 0,
        f"{side ** 3} positions under {side} and {len(seeded)} of 1 to 6 piles, "
        f"{violations} violations",
    )


def test_census_counts_and_closed_forms():
    frozen = {1: (4, 1, 3), 2: (16, 12, 36)}
    problems = []
    for k, expected in frozen.items():
        got = census(k).counts
        if got != expected:
            problems.append(f"k={k} frozen {got}!={expected}")
    for k in range(1, 9):
        if not census_closed_form_check(k):
            problems.append(f"closed form k={k}")
    verdict = "; ".join(problems) or "frozen k=1..2, closed form k=1..8"
    report("census counts", not problems, verdict)


def _xor_by_digits(a, b):
    out = 0
    for i in range(max(a.bit_length(), b.bit_length())):
        if ((a >> i) & 1) != ((b >> i) & 1):
            out |= 1 << i
    return out


def _wide_triples(rng, per_width):
    """For each width w from 1 to 300 bits, ``per_width`` triples whose first entry has w bits
    and whose second is below 2**w; then every triple of word edges."""
    for width in range(1, 301):
        for _ in range(per_width):
            a, b = of_width(rng, width), rng.getrandbits(width)
            yield a, b, of_width(rng, rng.randrange(1, 301))
    yield from product(WORD_EDGES, repeat=3)


def _broken_law(a, b, c):
    """The first law of Nim addition that a, b and c break, or None."""
    s = nim_sum(a, b)
    held = {
        "commutativity": s == nim_sum(b, a),
        "associativity": nim_sum(s, c) == nim_sum(a, nim_sum(b, c)),
        "identity/inverse": nim_sum(a, 0) == a == nim_sum(0, a) and nim_sum(a, a) == 0,
        "cancellation": nim_sum(s, b) == a and nim_sum(s, a) == b,
        "bounds": abs(a - b) <= s <= a + b,
        "closure": s < 1 << max(a.bit_length(), b.bit_length()),
    }
    return next((law for law, ok in held.items() if not ok), None)


def test_group_laws_exhaustively_and_at_width():
    n = 256
    values = [[nim_sum(a, b) for b in range(n)] for a in range(n)]
    if max(map(max, values)) >= n:
        report("group laws", False, "closure")
    problems = []
    # row a as bytes: row_b.translate(row_a) maps each b ^ c to a ^ (b ^ c)
    table = [bytes(row) for row in values]
    if list(zip(*table)) != list(map(tuple, table)):
        problems.append("commutativity")
    if table[0] != bytes(range(n)):
        problems.append("identity")
    if any(row[a] for a, row in enumerate(table)):
        problems.append("self-inverse")
    if any(
        not abs(a - b) <= value <= a + b
        for a, row in enumerate(table)
        for b, value in enumerate(row)
    ):
        problems.append("bounds")
    for a, row_a in enumerate(table):
        if any(row_b.translate(row_a) != table[row_a[b]] for b, row_b in enumerate(table)):
            problems.append(f"associativity a={a}")
            break
    wide = list(_wide_triples(random.Random(99991), 80))
    for i, triple in enumerate(wide):
        law = _broken_law(*triple)
        if law is not None:
            problems.append(f"wide {law} #{i}")
            break
    # the digit-by-digit rule is slow, so it checks every 20th case and every pair of word edges
    digitwise = [*(triple[:2] for triple in wide[::20]), *product(WORD_EDGES, repeat=2)]
    if any(nim_sum(a, b) != _xor_by_digits(a, b) for a, b in digitwise):
        problems.append("wide digitwise")
    report(
        "group laws",
        not problems,
        "; ".join(problems)
        or f"exhaustive under {n}, {len(wide)} wide cases of 1 to 300 bits "
        f"({len(digitwise)} digit by digit)",
    )
