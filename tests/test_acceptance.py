"""End-to-end acceptance suite.

Each test prints a one-line verdict (run with ``pytest -s`` to see them all)
and then asserts, so a failure is visible both in the report line and in the
pytest summary.  The checks are exhaustive at small widths and randomized at
large widths; every bound is checked exactly, timings against wall-clock
budgets.
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
from nimtriples.cli import main as cli_main
from nimtriples.triangles import TriangleClass, VertexStatus


def report(name, ok, detail):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_nonflat_triangles_have_one_or_three_large_vertices():
    side = 1 << 6
    start = time.perf_counter()
    violations = 0
    nonflat = 0
    for a, b, c in product(range(side), repeat=3):
        result = classify_triangle(a, b, c)
        if result.kind is TriangleClass.FLAT:
            continue
        nonflat += 1
        large = sum(s is VertexStatus.LARGE for s in result.statuses)
        if large not in (1, 3):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 5.0
    report(
        "non-flat large count",
        ok,
        f"{nonflat} non-flat of {side ** 3} triples, "
        f"{violations} violations, {elapsed:.2f}s",
    )


def test_sum_vertex_forces_flat():
    side = 1 << 7
    violations = 0
    for a in range(side):
        for b in range(side):
            result = classify_triangle(a, b, a ^ b)
            if result.kind is not TriangleClass.FLAT:
                violations += 1
            elif any(s is not VertexStatus.ALIGNED for s in result.statuses):
                violations += 1
    report(
        "sum vertex forces flat",
        violations == 0,
        f"{side * side} pairs, {violations} violations",
    )


# entries below 2**10, about the 64-bit word, and far past it
_ENTRY_RANGES = ((0, (1 << 10) + 1), ((1 << 60) - 8, (1 << 66) + 1), (0, (1 << 300) + 1))


def _random_entry(rng):
    return rng.randrange(*rng.choice(_ENTRY_RANGES))


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
    wide = [tuple(_random_entry(rng) for _ in range(3)) for _ in range(10_000)]
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
        f"n={n} latin={latin} xor={'ok' if matches else first_bad} {elapsed:.2f}s",
    )


def test_advisor_is_sound_on_the_small_cube():
    side = 1 << 5
    violations = 0
    for position in product(range(side), repeat=3):
        total = reduce(xor, position)
        move = advise_move(list(position))
        moves = winning_moves(list(position))
        if len(moves) not in (0, 1, 3):
            violations += 1
        if total == 0:
            if move is not None or moves:
                violations += 1
        else:
            if move is None or moves[0] != tuple(move):
                violations += 1
                continue
            successor = list(position)
            successor[move.pile] = move.new_size
            if move.new_size >= position[move.pile] or reduce(xor, successor) != 0:
                violations += 1
    report(
        "advisor soundness",
        violations == 0,
        f"{side ** 3} positions, {violations} violations",
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


def _random_wide(rng):
    width = rng.randrange(65, 193)
    return (1 << (width - 1)) | rng.getrandbits(width - 1)


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
    rng = random.Random(99991)
    wide_cases = 10_000
    for i in range(wide_cases):
        wa, wb, wc = (_random_wide(rng) for _ in range(3))
        if nim_sum(wa, wb) != nim_sum(wb, wa):
            problems.append(f"wide commutativity #{i}")
            break
        if nim_sum(nim_sum(wa, wb), wc) != nim_sum(wa, nim_sum(wb, wc)):
            problems.append(f"wide associativity #{i}")
            break
        if nim_sum(wa, 0) != wa or nim_sum(wa, wa) != 0:
            problems.append(f"wide identity/inverse #{i}")
            break
        if abs(wa - wb) > nim_sum(wa, wb) or nim_sum(wa, wb) > wa + wb:
            problems.append(f"wide bounds #{i}")
            break
        if i < 500 and nim_sum(wa, wb) != _xor_by_digits(wa, wb):
            problems.append(f"wide digitwise #{i}")
            break
    report(
        "group laws",
        not problems,
        "; ".join(problems)
        or f"exhaustive under {n}, {wide_cases} wide cases over 64 bits",
    )


def test_cli_render_golden_bytes(tmp_path, capsys):
    golden = b"P5\n2 2\n255\n" + bytes([255, 85, 85, 255])
    first = tmp_path / "first.pgm"
    second = tmp_path / "second.pgm"
    codes = [
        cli_main(["render", "1", "0", "--out", str(first)]),
        cli_main(["render", "1", "0", "--out", str(second)]),
    ]
    capsys.readouterr()
    data_first = first.read_bytes()
    data_second = second.read_bytes()
    ok = codes == [0, 0] and data_first == golden and data_first == data_second
    with capsys.disabled():
        report(
            "render golden",
            ok,
            f"exit={codes} bytes={'match' if data_first == golden else repr(data_first)} "
            f"repeat={'identical' if data_first == data_second else 'differs'}",
        )
