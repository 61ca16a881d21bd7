"""Expected outputs for every benchmarked call, computed without the library.

Everything here uses bare ``^`` and the bit rule of the paper: with
``t = a ^ b ^ c``, a triangle is flat iff ``t == 0``, and otherwise vertex
``x`` is large iff ``(x ^ t) < x`` and small otherwise.  Census tallies come
from the counted closed form and PGM bytes are built pixel by pixel, so no
check ever runs a second route of the library it is checking.
"""

from __future__ import annotations

GRAY = {"flat": 255, "tight": 170, "loose": 85}


def nim_sum(a: int, b: int) -> int:
    return a ^ b


def is_large(x: int, t: int) -> bool:
    return (x ^ t) < x


def classify(a: int, b: int, c: int) -> tuple[str, tuple[str, str, str], int | None]:
    """(class, vertex statuses, discriminant) of the triangle (a, b, c)."""
    t = a ^ b ^ c
    if t == 0:
        return "flat", ("aligned", "aligned", "aligned"), None
    statuses = tuple("large" if is_large(x, t) else "small" for x in (a, b, c))
    kind = "tight" if statuses.count("large") == 3 else "loose"
    return kind, statuses, t.bit_length() - 1


def reorder(a: int, b: int, c: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Leftmost vertex with x >= (the Nim sum of the others) first, the rest in order."""
    triple = (a, b, c)
    t = a ^ b ^ c
    first = 0 if t == 0 else next(i for i, x in enumerate(triple) if is_large(x, t))
    perm = (first, *(i for i in range(3) if i != first))
    return tuple(triple[i] for i in perm), perm


def winning(piles) -> list[tuple[int, int]]:
    """Every (pile, new size) that lowers a pile to the Nim sum of the others."""
    t = 0
    for p in piles:
        t ^= p
    if t == 0:
        return []
    return [(i, p ^ t) for i, p in enumerate(piles) if is_large(p, t)]


def advise(piles) -> tuple[int, int] | None:
    moves = winning(piles)
    return moves[0] if moves else None


def gray(a: int, b: int, c: int) -> int:
    return GRAY[classify(a, b, c)[0]]


def census_counts(k: int) -> tuple[int, int, int]:
    """(flat, tight, loose) over [0, 2**k)^3, counted per discriminant.

    Summing ``tight_j = 4**(k-1-j) * 8**j`` over j gives
    ``4**(k-1) * (2**k - 1)``; one aligned c per (a, b) gives ``4**k`` flat.
    """
    flat = 4**k
    tight = 4 ** (k - 1) * (2**k - 1)
    return flat, tight, 8**k - flat - tight


def pgm(k: int, c: int) -> bytes:
    """The whole P5 bitmap, row a and column b, one byte per pixel."""
    n = 1 << k
    return pgm_header(k) + bytes(gray(a, b, c) for a in range(n) for b in range(n))


def pgm_header(k: int) -> bytes:
    n = 1 << k
    return f"P5\n{n} {n}\n255\n".encode("ascii")


def xor_rows(n: int) -> list[list[int]]:
    return [[a ^ b for b in range(n)] for a in range(n)]


def xor_text(n: int) -> str:
    return "\n".join(" ".join(str(a ^ b) for b in range(n)) for a in range(n))


def cli_stdout(argv: list[str], values: dict) -> str:
    """Exact stdout of ``nimtriples <argv>`` for the commands the benchmark sends.

    ``values`` holds the operands as ints (the argv may spell them in hex or
    binary), under the names the command line uses.
    """
    command = argv[0]
    if command in ("sum", "mex"):
        lines = [str(values["a"] ^ values["b"])]
    elif command == "classify":
        kind, statuses, j = classify(values["a"], values["b"], values["c"])
        parts = [kind] + ([] if j is None else [f"j={j}"])
        parts += [f"{name}:{status}" for name, status in zip("abc", statuses)]
        lines = [" ".join(parts)]
    elif command == "reorder":
        triple, perm = reorder(values["a"], values["b"], values["c"])
        lines = [" ".join(map(str, triple)) + " perm=" + ",".join(map(str, perm))]
    elif command == "move":
        piles = values["piles"]
        moves = winning(piles) if "--all" in argv else winning(piles)[:1]
        lines = [f"winning pile={i} new={v}" for i, v in moves] or ["no-winning-move"]
    elif command == "table":
        n = values["n"]
        lines = [f"n={n} xor=ok"] if "--verify" in argv else [xor_text(n)]
    elif command == "census":
        k = values["k"]
        flat, tight, loose = census_counts(k)
        line = f"k={k} flat={flat} tight={tight} loose={loose}"
        if "--check-closed-form" in argv:
            line += " closed-form=ok"
        lines = [line]
    elif command == "render":
        n = 1 << values["k"]
        lines = [f"out={values['out']} width={n} height={n}"]
    else:
        raise ValueError(f"no reference for command {command!r}")
    return "".join(line + "\n" for line in lines)
