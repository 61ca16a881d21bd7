"""The golden battery of the command line: each argv's exit code, stdout, stderr and files.

Every argv runs through ``nimtriples.cli.main`` in process, in an empty
working directory, with ``NIM_TRIPLE_MAX_K`` set as the entry says or unset.
A file the run writes is recorded by its SHA-256 and removed, and a stdout
longer than ``LONG`` characters by its SHA-256 and length.  An argv token
longer than ``LONG`` characters is shown by its length and SHA-256, so the
file stays small; the argvs themselves come from ``battery()``, which keeps
the first entry of each (argv, ``NIM_TRIPLE_MAX_K``) and drops a repeat, so
each is recorded once.

    python tools/golden.py          # compare the checkout's CLI with tests/golden_cli.json
    python tools/golden.py --write  # regenerate tests/golden_cli.json
    python tools/golden.py --against TREE  # this checkout's CLI against TREE's

``--against`` replays the distinct ones of ``AGAINST_DRAWS`` seeded argvs,
drawn from ``_draw`` and ``_wide_corner`` in turn, through this checkout's
``main`` and through the one in the checkout at TREE, each in a child process
of its own since both packages are named ``nimtriples``, and prints every
argv whose entry differs.  A TREE without a ``src/nimtriples`` package is
refused before any replay, and a child whose import reaches a package outside
the ``src`` it was given stops, so neither replays this checkout in TREE's
place.

``tests/test_golden_cli.py`` makes the same comparison entry by entry, once
as the shell leaves it and once under each of two terminal widths and
decimal limits, and it is the one test of what an argv writes: a new argv to
check becomes an entry of ``_EDGES``, the last section, so every earlier
entry keeps its index.  The argv must be new to the battery: one written out
in a section that repeats an earlier entry fails that test instead of being
dropped.  ``tests/test_cli.py`` keeps only what a run in process cannot
show, and ``tests/test_environment.py`` runs only ``_ENVIRONMENT`` again, in
child processes, under ``LC_ALL=C``.  The fuzz section's argvs come from
``_draw``, which ``tests/test_cli_fuzz.py`` also runs through ``record``,
with a seed of its own; that test also holds every entry of the file to the
exit contract.  CI runs the comparison once more after uninstalling numpy,
so every argv is also checked without it.  A change that alters the bytes on
purpose regenerates the file, and the diff of the file is the record of what
changed.  Standard library only.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_cli.json"
LONG = 2048
MAX_K_ENV = "NIM_TRIPLE_MAX_K"
FUZZ_SEED = 20151
FUZZ_DRAWS = 400
CORNER_SEED = 21
CORNER_DRAWS = 150
AGAINST_SEED = 26
AGAINST_DRAWS = 18000

# the operands each command takes; move takes any number from one up
_ARITY = dict(sum=2, classify=3, reorder=3, mex=2, table=1, move=3, census=1, render=2)
COMMANDS = list(_ARITY)
WIDE = "0x" + "f" * 4000  # 16000 bits, about 4817 decimal digits
LONG_TOKEN = "9" * 4999 + "x"

# The only argvs tests/test_environment.py runs, in a child under LC_ALL=C and in one
# without; -h of each command is among them.
_ENVIRONMENT = [
    ["-h"],
    *([command, "-h"] for command in COMMANDS),
    [],
    ["table"],
    ["sum", "1", "frog"],
    ["frobnicate"],
    [LONG_TOKEN],
    ["sum", LONG_TOKEN, "1"],
    ["sum", "1", "2", LONG_TOKEN],
    ["sum", WIDE, "1"],
    ["sum", WIDE, "0"],
    ["--json", "sum", WIDE, "1"],
    ["sum", "1" * 1000, "1"],
    ["sum", "1" * 5000, "1"],
    ["--json", "census", "3", "--check-closed-form"],
    ["render", "2", "5", "--out", "x.pgm"],
    ["render", "2", "5", "--out", "missing/x.pgm"],
]

# Each command kind once, run with and without --json.
_KINDS = [
    ["sum", "5", "3"],
    ["classify", "5", "1", "2"],
    ["classify", "1", "2", "3"],
    ["classify", "2", "2", "3"],
    ["reorder", "1", "2", "7"],
    ["mex", "2", "3"],
    ["table", "4"],
    ["table", "4", "--verify"],
    ["move", "5", "1", "2"],
    ["move", "1", "2", "3"],
    ["move", "2", "2", "3", "--all"],
    ["census", "3"],
    ["census", "3", "--check-closed-form"],
    ["render", "2", "5", "--out", "r.pgm"],
]

# One refusal per cap, and the NIM_TRIPLE_MAX_K grammar and range, as (argv, NIM_TRIPLE_MAX_K);
# the decimal limit's refusal, sum WIDE 1, is _ENVIRONMENT's.
_CAPS = [
    (["mex", "0x100000", "1"], None),
    (["table", "1025"], None),
    (["census", "8"], None),
    (["census", "8"], "8"),
    (["census", "8"], "0x8"),
    (["census", "8"], "1_0"),
    (["census", "8"], "17"),
    (["census", "8"], "9" * 5000),
    (["census", "11", "--check-closed-form"], "16"),
    (["render", "13", "0", "--out", "capped.pgm"], None),
    (["render", "17", "0", "--out", "capped.pgm"], "16"),
]

# Each shape of usage error, and the corners of the grammar.
_USAGE = [
    ["sum", "1"],
    ["sum", "1", "2", "3"],
    ["render", "2", "5"],
    ["render", "2", "5", "--out"],
    ["render", "2", "5", "--out=o.pgm"],
    ["sum", "--", "1", "2"],
    ["table", "4", "--ver"],
    ["--js", "sum", "5", "3"],
    ["census", "3", "--check"],
    ["census", "3", "--timing"],
    ["sum", "-5", "1"],
    ["sum", "1", "2", "-h"],
    ["-hx"],
    ["sum", "1", "-hx"],
    ["-hh"],
    ["-h="],
    ["--json=1"],
    ["--=x"],
    ["-=x"],
    ["sum", "1", "2", "-="],
    ["--", "sum", "1", "2"],
    ["sum", "1", "--", "--"],
    ["sum", "--", "1", "--"],
    ["sum", "-5\n", "1"],
    ["render", "2", "1", "--out="],
    ["render", "2", "--", "--", "1", "--out", "o.pgm"],
    ["render", "--", "2", "--", "1", "--out", "o.pgm"],
    ["render", "2", "1", "--out=--"],
]

# Each command at its edges, the operand grammar, the NIM_TRIPLE_MAX_K range and
# operands too wide for decimal, as (argv, NIM_TRIPLE_MAX_K).  The battery's last
# section: a new argv goes at its end, and every earlier entry keeps its index.  It
# must be new to the battery, as every argv written out here and in _ENVIRONMENT,
# _CAPS and _USAGE must: battery() would drop a repeat, and a test fails instead.
_EDGES = [
    (["sum", "0x1f", "0b10"], None),
    (["--json", "table", "2"], None),
    (["table", "8", "--verify"], None),
    (["table", "1000", "--verify"], None),  # checked against rows padded to 1024
    (["table", "0"], None),
    (["move", "3", "1", "2"], None),
    (["--json", "move", "3", "1", "2"], None),
    (["move", "1", "2", "3", "--all"], None),
    (["move", "1", "2", "--all"], None),
    (["--json", "census", "1"], None),
    (["census", "2", "--check-closed-form"], None),
    (["census", "0"], None),
    (["census", "99"], None),
    (["census", "2"], "1"),
    (["render", "1", "0", "--out", "grid.pgm"], None),
    (["sum", "5", "frog"], None),
    (["sum", "5", "--", "-3"], None),
    (["sum", "1_000", "1"], None),
    (["sum", "\u0663", "1"], None),  # an Arabic-Indic 3
    (["sum", "0x0x5", "1"], None),
    (["census", "1"], "-1"),
    (["census", "1"], "17"),
    (["census", "1"], "banana"),
    (["census", "8"], "9" * 30),  # shown whole: cut, it would be 3 characters longer
    (["census", "1"], "0"),
    (["render", "0", "0", "--out", "dot.pgm"], "0"),
    (["census", "1"], "16"),
    (["reorder", WIDE, "1", "2"], None),
    (["move", WIDE, WIDE, "1"], None),
    (["move", WIDE, WIDE, "1", "--all"], None),
    (["--json", "move", WIDE, WIDE, "1", "--all"], None),
    (["sum", WIDE, WIDE], None),
    (["classify", WIDE, "1", "2"], None),
    (["move", WIDE, "1", "2"], None),
    (["census", WIDE], None),
    (["table", WIDE], None),
    (["mex", WIDE, "1"], None),
    (["render", WIDE, "0", "--out", "unused.pgm"], None),
    # an ambiguous option, and a value given to a flag, 5000 characters long
    (["--=" + "x" * 5000], None),
    (["-h" + "x" * 5000], None),
    (["--json=" + "x" * 5000], None),
    (["table", "4", "--verify=" + "x" * 5000], None),
    # "-h=" and then "h"s, read as 3.10 to 3.12 read them
    (["-h=h", "census", "3"], None),
    (["sum", "1", "-h=hhx", "2"], None),
    (["-h=hh"], None),
    (["render", "1", "0", "--out", "x" * 250], None),  # a legal name near NAME_MAX
    # the corners of the grammar that no entry above reaches: an option, known or
    # not, ends a run of piles; the first "--" with no operand next to it is left
    # over, and is no value for --out, nor is an option; a trailing "--" before the
    # command; a negative number in another script, and a token with a space, are
    # operands
    (["move", "1", "--all", "2"], None),
    (["move", "1", "--timing", "2"], None),
    (["table", "4", "--verify", "--"], None),
    (["render", "1", "0", "--out", "--", "x.pgm"], None),
    (["render", "1", "0", "--out", "--json"], None),
    (["--json", "--"], None),
    (["sum", "-\u0663", "1"], None),
    (["sum", "1", "-x y"], None),
    # a "--" before the command, alone or after an option; a "--" after the last
    # operand goes with it, but after a left-over one is left over too; and help
    # takes no value where the command's option does
    (["--", "sum", "-hx"], None),
    (["--json", "--", "sum", "1", "2"], None),
    (["--"], None),
    (["sum", "1", "2", "--"], None),
    (["sum", "1", "2", "3", "--"], None),
    (["render", "1", "0", "-hx"], None),
    # an --out the system refuses as too long, one name past NAME_MAX and one path past
    # PATH_MAX, is echoed cut, as a refused token is; the 250-character name above is whole
    (["render", "1", "0", "--out", "x" * 3000], None),
    (["render", "1", "0", "--out", "d/" * 2100], None),
    # NIM_TRIPLE_MAX_K is read only where a bit width is capped: a command without
    # one ignores a bad value, and render refuses it, as census refuses an empty one
    (["sum", "1", "2"], "banana"),
    (["render", "1", "0", "--out", "x.pgm"], "banana"),
    (["census", "1"], ""),
    # a cap reached under --json: the cap's line, and no JSON
    (["--json", "census", "8"], None),
    (["--json", "render", "13", "0", "--out", "capped.pgm"], None),
]

# The argv generator of the fuzz section, and of tests/test_cli_fuzz.py, which
# hands it a random of its own seed and runs each argv through record.
_FLAGS = ["--json", "--all", "--verify", "--check-closed-form", "-h", "--timing"]
_TEXT = "abhxyz019-_=., \n\t\x00\xe9€\U0001d7d9"


def _spelled(rng, value, spellings=(str, hex, bin)):
    return rng.choice(spellings)(value)


def _small(rng):
    return _spelled(rng, rng.randint(0, 64))


def _number(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return _small(rng)
    if kind == 1:
        return _spelled(rng, -rng.randint(1, 2**70))
    if kind == 2:
        return _spelled(rng, rng.randint(2**64, 2**200))
    if kind == 3:  # past 4300 decimal digits: str() refuses these
        return _spelled(rng, rng.randint(2**15000, 2**15001), (hex, bin))
    return "9" * 4300 + str(rng.randint(0, 10**6))


def _option(rng):
    return rng.choice([*([flag] for flag in _FLAGS), ["--out", "out.pgm"]])


def _token(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return [rng.choice(COMMANDS)]
    if kind == 1:
        return [rng.choice(_FLAGS)]
    if kind == 2:
        return ["--out", "out.pgm"]
    if kind == 3:
        return [_number(rng)]
    return ["".join(rng.choice(_TEXT) for _ in range(rng.randint(0, 6)))]


def _draw(rng):
    """A loose list of tokens, or an argv shaped like a real call, half the time each."""
    if rng.randrange(2):
        return [piece for _ in range(rng.randint(0, 6)) for piece in _token(rng)]
    command = rng.choice(COMMANDS)
    numbers = [rng.choice((_small, _number))(rng) for _ in range(_ARITY[command])]
    options = [piece for _ in range(rng.randint(0, 2)) for piece in _option(rng)]
    out = ["--out", "out.pgm"] if command == "render" else []
    return [*(["--json"] if rng.randrange(2) else []), command, *numbers, *options, *out]


# The shapes at the corners of the grammar: options, known or not, abbreviated or given
# values, and operands that look like options; "--" is there three times, since where
# the first one falls matters most.
_WIDE_VOCABULARY = [
    *("--", "-h", "-hh", "-hx", "-hhx", "-h x", "-hh=", "-h=", "-h-", "--=x", "--="),
    *("--js", "--json", "--json=1", "--help", "--he", "-5", "-x"),
    *("--out", "--out=o.pgm", "--out=--", "--all", "--verify", "--check"),
    *COMMANDS,
    *("0", "1", "2", "3"),
    *("-", "", "---", "--he=x", "--help=", "--j", "--json x", "--o", "--o=x.pgm", "--out="),
    *("--ver", "--verify=", "--a", "--all=x", "--c", "--check-closed-form", "--c=1", "--x"),
    *("-5\n", "-\u0663", "-1.5", "-.5", "-0x5", "a b", "-x y", "-h==x", "-h=h", "-hh="),
    *("x.pgm", "4", "5", "0x3", "0b1", "--", "--"),
]


def _wide_corner(rng):
    """A command near the front, among small numbers and the wide vocabulary, half each."""
    pick = [lambda: str(rng.randint(0, 5)), lambda: rng.choice(_WIDE_VOCABULARY)]
    tokens = [rng.choice(pick)() for _ in range(rng.randint(0, 6))]
    tokens.insert(rng.randint(0, min(2, len(tokens))), rng.choice(COMMANDS))
    return tokens


def distinct(pairs) -> list[tuple[list[str], str | None]]:
    """The first of each (argv, NIM_TRIPLE_MAX_K) in ``pairs``, in order: a repeat is dropped."""
    first = {}
    for argv, max_k in pairs:
        first.setdefault((tuple(argv), max_k), (argv, max_k))
    return list(first.values())


def draws() -> list[tuple[list[str], str | None]]:
    """The distinct seeded (argv, NIM_TRIPLE_MAX_K) of --against, from each generator in turn."""
    rng, kinds = random.Random(AGAINST_SEED), [(_draw, "4"), (_wide_corner, None)]
    return distinct(
        (draw(rng), max_k) for i in range(AGAINST_DRAWS) for draw, max_k in [kinds[i % 2]]
    )


def battery() -> list[tuple[list[str], str | None]]:
    """Each (argv, NIM_TRIPLE_MAX_K) of the battery once, in file order; the draws are seeded."""
    rng, corners = random.Random(FUZZ_SEED), random.Random(CORNER_SEED)
    return distinct([
        *((argv, None) for argv in _ENVIRONMENT),
        *((argv, None) for argv in _KINDS),
        *((["--json", *argv], None) for argv in _KINDS),
        *_CAPS,
        *((argv, None) for argv in _USAGE),
        *((_draw(rng), "4") for _ in range(FUZZ_DRAWS)),
        *((_wide_corner(corners), None) for _ in range(CORNER_DRAWS)),
        *_EDGES,
    ])


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _shown(token: str) -> str:
    if len(token) <= LONG:
        return token
    return f"<{len(token)} chars, sha256 {_digest(token.encode())}>"


def record(argv: list[str], max_k: str | None, workdir: str) -> dict:
    """The battery entry of ``argv``: ``main``'s exit code, stdout, stderr and files written."""
    from nimtriples.cli import main

    saved, here = os.environ.pop(MAX_K_ENV, None), os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    os.chdir(workdir)
    try:
        if max_k is not None:
            os.environ[MAX_K_ENV] = max_k
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        files = {}
        for path in sorted(Path(workdir).iterdir()):
            files[path.name] = _digest(path.read_bytes())
            path.unlink()
    finally:
        os.chdir(here)
        os.environ.pop(MAX_K_ENV, None)
        if saved is not None:
            os.environ[MAX_K_ENV] = saved
    stdout = out.getvalue()
    if len(stdout) > LONG:
        stdout = {"stdout_chars": len(stdout), "stdout_sha256": _digest(stdout.encode())}
    else:
        stdout = {"stdout": stdout}
    return {
        "argv": [_shown(token) for token in argv],
        MAX_K_ENV: max_k and _shown(max_k),
        "exit": code,
        **stdout,
        "stderr": err.getvalue(),
        "files": files,
    }


def _replay(tree: str) -> list[dict]:
    """The entries of ``draws()`` as the checkout at ``tree`` writes them, run in a child."""
    src = str(Path(tree).resolve() / "src")
    proc = subprocess.run([sys.executable, __file__, "--replay", src], stdout=subprocess.PIPE)
    if proc.returncode:
        sys.exit(f"the replay of {tree} exited {proc.returncode}")
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description="Compare the CLI with its golden battery.")
    parser.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN.name}")
    parser.add_argument("--against", metavar="TREE", help="compare with TREE's CLI on seeded argvs")
    parser.add_argument("--replay", metavar="SRC", help=argparse.SUPPRESS)  # --against's child
    args = parser.parse_args()
    if args.replay:
        sys.path.insert(0, args.replay)
        import nimtriples

        # without a package of its own in SRC, the import falls through to this checkout's
        if not Path(nimtriples.__file__).resolve().is_relative_to(Path(args.replay).resolve()):
            sys.exit(f"{args.replay} holds no nimtriples: {nimtriples.__file__} was imported")
        with tempfile.TemporaryDirectory() as workdir:
            entries = [record(argv, max_k, workdir) for argv, max_k in draws()]
        json.dump(entries, sys.stdout)
        return 0
    if args.against:
        if not (Path(args.against) / "src" / "nimtriples" / "__init__.py").is_file():
            print(f"{args.against} has no src/nimtriples package to replay", file=sys.stderr)
            return 2
        here, there = _replay(str(ROOT)), _replay(args.against)
        changed = [(mine, theirs) for mine, theirs in zip(here, there) if mine != theirs]
        for mine, theirs in changed:
            print(f"differs: {mine['argv']!r}\n  here:  {mine!r}\n  there: {theirs!r}")
        print(f"{len(changed)} of {len(here)} argvs differ from {args.against}")
        return int(bool(changed) or len(here) != len(draws()))
    with tempfile.TemporaryDirectory() as workdir:
        entries = [record(argv, max_k, workdir) for argv, max_k in battery()]
    if args.write:
        GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="ascii")
        print(f"wrote {len(entries)} entries to {GOLDEN}")
        return 0
    expected = json.loads(GOLDEN.read_text(encoding="ascii"))
    changed = [i for i, (got, want) in enumerate(zip(entries, expected)) if got != want]
    for i in changed:
        print(f"entry {i} differs: {entries[i]['argv']!r}")
    if len(entries) != len(expected):
        print(f"{len(entries)} entries against {len(expected)} in {GOLDEN}")
    return int(bool(changed) or len(entries) != len(expected))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
