"""The three workloads: inputs made from a seed, the calls they time, and their checks.

Each workload hands out its inputs in cycles.  A cycle has the same mix of
operation kinds and sizes for every seed; the seed only picks operand values
and the order inside the cycle, so medians compare across seeds.  Runs stop
on a cycle boundary.

``execute`` makes only calls into the library, through ``tr.call`` so the
traced run can put a span around each one; ``check`` compares its outputs
with ``reference`` afterwards, outside the timed region, and returns the
span names of the calls whose output was wrong.
"""

from __future__ import annotations

import functools
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

import reference

PARSE = "natural.parse_natural"
NIM_SUM = "natural.nim_sum"
CLASSIFY = "triangles.classify_triangle"
REORDER = "triangles.reorder_dominant"
ADVISE = "advisor.advise_move"
WINNING = "advisor.winning_moves"
CENSUS = "census.census"
GRID = "render.classification_grid"
PGM = "render.render_pgm"
MEX = "mex.mex_oracle"
GREEDY = "mex.greedy_minimal_table"
VERIFY = "mex.verify_table_equals_xor"
TEXT = "mex.table_to_text"
PROCESS = "cli.process"
MAIN = "cli.main"

# Spellings the library accepts for a natural: decimal, 0x hex, 0b binary.
SPELLINGS = (str, hex, bin)


def child_env(root: Path) -> dict[str, str]:
    """The environment for ``python`` subprocesses: the package from ``src/``, default caps."""
    env = {k: v for k, v in os.environ.items() if k != "NIM_TRIPLE_MAX_K"}
    env["PYTHONPATH"] = str(root / "src")
    return env


# A yardstick is a fixed task that uses no part of the package and is timed
# next to the operations.  On a host whose processors other tenants share,
# the speed of the whole machine drifts by a fifth over tens of seconds, and
# the yardstick's time drifts with it.  A workload's times are scaled by the
# yardstick's nominal time, below, over its measured time.
STARTUP_YARDSTICK_NS = 50_000_000
IMPORT_YARDSTICK_NS = 150_000_000
PYTHON_YARDSTICK_NS = 500_000
NUMPY_YARDSTICK_NS = 3_000_000


def startup_yardstick(root: Path) -> float:
    """ns of the median of three ``python -c pass`` processes: start-up without the package."""
    times = []
    for _ in range(3):
        start = perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, "-c", "pass"],
            capture_output=True, text=True, env=child_env(root), cwd=root, timeout=120,
        )
        times.append(perf_counter_ns() - start)
        if proc.returncode:
            raise RuntimeError(f"yardstick process exit {proc.returncode}: {proc.stderr[-300:]}")
    return statistics.median(times)


def import_yardstick(root: Path) -> int:
    """ns that a fresh interpreter takes to import numpy, timed inside it as set-up probes time themselves."""
    code = "import time; t = time.perf_counter_ns(); import numpy; print(time.perf_counter_ns() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=child_env(root), cwd=root, timeout=120,
    )
    if proc.returncode:
        raise RuntimeError(f"yardstick process exit {proc.returncode}: {proc.stderr[-300:]}")
    return int(proc.stdout)


def python_yardstick() -> int:
    """ns of the fastest of three runs of a fixed pure-Python integer loop, about 0.5 ms each."""
    best = sys.maxsize
    for _ in range(3):
        start = perf_counter_ns()
        acc = 0
        for i in range(8000):
            acc ^= i * i
        best = min(best, perf_counter_ns() - start)
    return best


def _moves(moves) -> list[tuple[int, int]]:
    return [tuple(m) for m in moves]


class Scalar:
    """A library caller's hot loop: one triple, parsed from text, through five calls.

    Widths 8, 64 and 4096 bits and the flat share (one triple in three has
    ``c = a ^ b``) vary what the bit kernel and the early returns see.
    ``advise_move`` also gets the triple widened to 4..16 piles.
    """

    name = "scalar"
    op_span = "scalar.op"
    in_process = True
    # About 50 ms of operations between two runs of the yardstick.
    slice = 1800
    yardstick_ns = PYTHON_YARDSTICK_NS
    yardstick = staticmethod(python_yardstick)
    widths = (8, 64, 4096)

    def __init__(self, tiny: bool, root: Path) -> None:
        self.sizes = {
            "widths_bits": list(self.widths),
            "flat_per_width": "1 of 3",
            "spellings": ["decimal", "hex", "binary"],
            "advise_piles": [4, 16],
            "ops_per_cycle": 3 * len(self.widths),
        }

    def setup(self) -> None:
        import nimtriples

        self.lib = nimtriples

    def warmup_cases(self, rng):
        return self.cycle(rng)

    def cleanup(self) -> None:
        pass

    def cycle(self, rng):
        cases = []
        for width in self.widths:
            for flat in (True, False, False):
                a, b = rng.getrandbits(width), rng.getrandbits(width)
                c = a ^ b if flat else rng.getrandbits(width)
                if not flat and c == a ^ b:
                    c ^= 1
                texts = tuple(rng.choice(SPELLINGS)(x) for x in (a, b, c))
                extra = tuple(rng.getrandbits(width) for _ in range(rng.randint(1, 13)))
                cases.append((a, b, c, texts, (a, b, c, *extra)))
        rng.shuffle(cases)
        return cases

    def execute(self, case, tr):
        lib = self.lib
        ta, tb, tc = case[3]
        a = tr.call(PARSE, lib.parse_natural, ta)
        b = tr.call(PARSE, lib.parse_natural, tb)
        c = tr.call(PARSE, lib.parse_natural, tc)
        return (
            (a, b, c),
            tr.call(NIM_SUM, lib.nim_sum, a, b),
            tr.call(CLASSIFY, lib.classify_triangle, a, b, c),
            tr.call(REORDER, lib.reorder_dominant, a, b, c),
            tr.call(ADVISE, lib.advise_move, (a, b, c)),
            tr.call(ADVISE, lib.advise_move, case[4]),
            tr.call(WINNING, lib.winning_moves, (a, b, c)),
        )

    def check(self, case, out) -> list[str]:
        a, b, c, _, piles = case
        parsed, total, cls, reordered, advice3, advice, moves = out
        got_cls = (cls.kind.value, tuple(s.value for s in cls.statuses), cls.discriminant)
        bad = [
            (PARSE, parsed == (a, b, c)),
            (NIM_SUM, total == reference.nim_sum(a, b)),
            (CLASSIFY, got_cls == reference.classify(a, b, c)),
            (REORDER, reordered == reference.reorder(a, b, c)),
            (ADVISE, advice3 == reference.advise((a, b, c))),
            (ADVISE, advice == reference.advise(piles)),
            (WINNING, _moves(moves) == reference.winning((a, b, c))),
        ]
        return [name for name, ok in bad if not ok]


class Sweep:
    """The exhaustive routes at fixed sizes: census, grid and PGM, greedy table, mex.

    Per (k, c class) there is one grid and one PGM per cycle, with c from
    ``0``, below ``2**k``, a 64-bit value under ``2**62``, and at least
    ``2**62`` (the all-loose shortcut).  The largest grid sets peak memory.
    """

    name = "sweep"
    op_span = "sweep.op"
    in_process = True
    slice = 1
    yardstick_ns = NUMPY_YARDSTICK_NS

    def __init__(self, tiny: bool, root: Path) -> None:
        if tiny:
            self.census_k, self.render_k, self.table_n, self.mex_total = (2, 3), (3, 4, 5), 16, 1 << 10
        else:
            self.census_k, self.render_k, self.table_n, self.mex_total = (7, 8), (10, 11, 12), 512, 1 << 20
        self.pixel_samples = 64
        self.sizes = {
            "census_k": list(self.census_k),
            "render_k": list(self.render_k),
            "render_c": ["0", "below 2**k", "2**32..2**62", "2**62..2**64"],
            "table_n": self.table_n,
            "mex_a_plus_b": f"{self.mex_total - (self.mex_total >> 10) + 1}..{self.mex_total}",
            "pixel_samples": self.pixel_samples,
            "ops_per_cycle": 4 + 8 * len(self.render_k) + 4,
        }
        self._xor: dict[int, tuple[list[list[int]], str]] = {}
        self._lane = None

    def setup(self) -> None:
        import nimtriples

        self.lib = nimtriples
        self.census = functools.partial(nimtriples.census, max_k=max(self.census_k))
        self.grid = functools.partial(nimtriples.classification_grid, max_k=max(self.render_k))
        self.pgm = functools.partial(nimtriples.render_pgm, max_k=max(self.render_k))

    def cleanup(self) -> None:
        pass

    def yardstick(self) -> int:
        """ns of the fastest of three runs of fixed numpy work on an 8 MB array, about 3 ms each.

        The array is made on the first call, after the set-ups, so that the
        in-process set-up still imports numpy with the package.
        """
        if self._lane is None:
            import numpy as np

            self._lane = np.arange(1 << 20, dtype=np.int64)
        lane, best = self._lane, sys.maxsize
        for _ in range(3):
            start = perf_counter_ns()
            int(((lane ^ (lane >> 3)) < lane).sum())
            best = min(best, perf_counter_ns() - start)
        return best

    def warmup_cases(self, rng):
        return [
            ("census", 2),
            ("grid", 3, 5, self._samples(rng, 3)),
            ("pgm", 3, 5, self._samples(rng, 3)),
            ("table", 8),
            ("mex", 3, 5),
        ]

    def _samples(self, rng, k):
        n = 1 << k
        return [(0, 0), (n - 1, n - 1)] + [
            (rng.randrange(n), rng.randrange(n)) for _ in range(self.pixel_samples - 2)
        ]

    def cycle(self, rng):
        # Three census at the larger k and three mex per cycle put the median on
        # a k=11 render and the 90th percentile among k=12 renders and mex, each
        # well inside its block, so neither jumps between kinds of operation.
        small_k, large_k = self.census_k
        cases = [("census", small_k)] + [("census", large_k)] * 3
        for k in self.render_k:
            for c in (
                0,
                rng.randrange(1, 1 << k),
                rng.randrange(1 << 32, 1 << 62),
                rng.randrange(1 << 62, 1 << 64),
            ):
                cases.append(("grid", k, c, self._samples(rng, k)))
                cases.append(("pgm", k, c, self._samples(rng, k)))
        cases.append(("table", self.table_n))
        for _ in range(3):
            a = rng.randrange(self.mex_total * 3 // 8, self.mex_total * 5 // 8)
            cases.append(("mex", a, self.mex_total - a - rng.randrange(self.mex_total >> 10)))
        rng.shuffle(cases)
        return cases

    def execute(self, case, tr):
        kind = case[0]
        if kind == "census":
            tr.count(CENSUS, 8 ** case[1])
            return tr.call(CENSUS, self.census, case[1])
        if kind == "grid":
            tr.count(GRID, 4 ** case[1])
            return tr.call(GRID, self.grid, case[1], case[2])
        if kind == "pgm":
            tr.count(PGM, 4 ** case[1])
            return tr.call(PGM, self.pgm, case[1], case[2])
        if kind == "table":
            lib, n = self.lib, case[1]
            rows = tr.call(GREEDY, lib.greedy_minimal_table, n)
            verdict = tr.call(VERIFY, lib.verify_table_equals_xor, rows)
            text = tr.call(TEXT, lib.table_to_text, rows)
            tr.count(GREEDY, n * n)
            tr.count(VERIFY, n * n)
            tr.count(TEXT, len(text))
            return rows, verdict, text
        tr.count(MEX, case[1] + case[2])
        return tr.call(MEX, self.lib.mex_oracle, case[1], case[2])

    def check(self, case, out) -> list[str]:
        kind = case[0]
        if kind == "census":
            k = case[1]
            ok = out.k == k and (out.flat, out.tight, out.loose) == reference.census_counts(k)
            return [] if ok else [CENSUS]
        if kind == "grid":
            _, k, c, samples = case
            ok = out.shape == (1 << k, 1 << k) and str(out.dtype) == "uint8"
            ok = ok and all(int(out[a, b]) == reference.gray(a, b, c) for a, b in samples)
            return [] if ok else [GRID]
        if kind == "pgm":
            _, k, c, samples = case
            n, header = 1 << k, reference.pgm_header(k)
            ok = out.startswith(header) and len(out) == len(header) + n * n
            ok = ok and all(
                out[len(header) + a * n + b] == reference.gray(a, b, c) for a, b in samples
            )
            return [] if ok else [PGM]
        if kind == "table":
            n = case[1]
            if n not in self._xor:
                self._xor[n] = reference.xor_rows(n), reference.xor_text(n)
            (rows, verdict, text), (want_rows, want_text) = out, self._xor[n]
            bad = [(GREEDY, rows == want_rows), (VERIFY, verdict == (True, None)), (TEXT, text == want_text)]
            return [name for name, ok in bad if not ok]
        return [] if out == reference.nim_sum(case[1], case[2]) else [MEX]


class Cli:
    """Sequential ``python -m nimtriples`` processes over all eight commands.

    Operands are small, so start-up and import dominate: this is what a user
    of the command line waits for.  Every cycle has one of each of the nine
    invocation kinds (``move`` with and without ``--all``).
    """

    name = "cli"
    op_span = "cli.op"
    in_process = False
    # One cycle of nine processes between two runs of the yardstick.
    slice = 9
    yardstick_ns = STARTUP_YARDSTICK_NS

    def __init__(self, tiny: bool, root: Path) -> None:
        self.root = root
        self.tmp = root / ".perfbench_tmp" / f"cli-{os.getpid()}"
        self.run = functools.partial(
            subprocess.run, capture_output=True, text=True, env=child_env(root), cwd=root, timeout=120
        )
        self.python = sys.executable
        self.renders = 0
        self.sizes = {
            "commands": [
                "sum", "classify", "reorder", "move", "move --all", "mex", "table", "census", "render"
            ],
            "operand_bits": {"sum": 32, "classify": 12, "reorder": 12, "move": 10},
            "mex_a_plus_b": "100..500",
            "table_n": [2, 16],
            "census_k": [1, 3],
            "render_k": [1, 6],
            "ops_per_cycle": 9,
        }

    def setup(self) -> None:
        self.tmp.mkdir(parents=True, exist_ok=True)

    def warmup_cases(self, rng):
        return [self._case(rng, "sum", a=rng.getrandbits(32), b=rng.getrandbits(32))]

    def yardstick(self) -> float:
        return startup_yardstick(self.root)

    def _case(self, rng, command, *flags, **values):
        argv = [command]
        for key, value in values.items():
            if key == "piles":
                argv += [rng.choice(SPELLINGS)(p) for p in value]
            elif key == "out":
                argv += ["--out", value]
            else:
                argv.append(rng.choice(SPELLINGS)(value))
        argv += flags
        return argv, values

    def cycle(self, rng):
        def maybe_flat(bits):
            a, b = rng.getrandbits(bits), rng.getrandbits(bits)
            return a, b, a ^ b if rng.random() < 1 / 3 else rng.getrandbits(bits)

        def maybe(flag):
            return [flag] if rng.random() < 0.5 else []

        self.renders += 1
        cases = [
            self._case(rng, "sum", a=rng.getrandbits(32), b=rng.getrandbits(32)),
            self._case(rng, "classify", **dict(zip("abc", maybe_flat(12)))),
            self._case(rng, "reorder", **dict(zip("abc", maybe_flat(12)))),
            self._case(rng, "move", piles=[rng.getrandbits(10) for _ in range(rng.randint(3, 6))]),
            self._case(rng, "move", "--all", piles=list(maybe_flat(10))),
            self._case(rng, "mex", a=rng.randint(50, 250), b=rng.randint(50, 250)),
            self._case(rng, "table", *maybe("--verify"), n=rng.randint(2, 16)),
            self._case(rng, "census", *maybe("--check-closed-form"), k=rng.randint(1, 3)),
            self._case(
                rng,
                "render",
                k=rng.randint(1, 6),
                c=rng.getrandbits(8),
                out=str(self.tmp / f"r{self.renders}.pgm"),
            ),
        ]
        rng.shuffle(cases)
        return cases

    def execute(self, case, tr):
        proc = tr.call(PROCESS, self.run, [self.python, "-m", "nimtriples", *case[0]])
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, case, out) -> list[str]:
        """Exit code 0, the exact stdout, nothing on stderr, and the PGM byte for byte."""
        argv, values = case
        ok = out == (0, reference.cli_stdout(argv, values), "")
        if argv[0] == "render":
            path = Path(values["out"])
            try:
                ok = ok and path.read_bytes() == reference.pgm(values["k"], values["c"])
                path.unlink()
            except OSError:
                ok = False
        return [] if ok else [PROCESS]

    def main_in_process(self, case, tr):
        """``nimtriples.cli.main`` on the same argv, stdout and stderr captured."""
        import contextlib
        import io

        from nimtriples.cli import main

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call(MAIN, main, list(case[0]))
        return code, out.getvalue(), err.getvalue()

    def cleanup(self) -> None:
        import shutil

        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Cli, Scalar, Sweep)}
