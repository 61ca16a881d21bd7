"""Benchmark of nimtriples: seeded workloads, checked outputs, every metric by name.

Run from the repository root (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload {cli,scalar,sweep} --seed N --seconds S --trace {0,1}

All three workloads are closed loops with one client in one process; ``cli``
runs one subprocess at a time.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same inputs twice, untraced and then with a span
around every call into a layer, reports the per-layer metrics from the
spans, and writes the spans to ``.perfbench_out/`` at exit.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from array import array
from importlib import metadata
from pathlib import Path
from time import perf_counter, perf_counter_ns

import workloads
from spans import Tracer, Untraced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# At 100 operations the 90th percentile has ten samples beyond it.
MIN_OPS = 100
# setup_s is the median of SETUP_SAMPLES set-ups.  Imports run up to twice as
# slow for a while after the machine has not loaded numpy; the SETTLE_SETUPS
# set-ups before them are discarded so that the state of the machine left by
# earlier runs does not decide the figure.
SETUP_SAMPLES = 11
SETTLE_SETUPS = 20
IMPORT_PROBES = 5
# Spans per traced scalar op are many and cheap; this keeps the trace small.
TRACE_MAX_OPS = {"scalar": 30_000}
# Percentiles come from a uniform sample of at most this many operation times,
# so the benchmark's own memory does not grow with the operations a run does.
RESERVOIR = 50_000

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# (span name, extra stat, its unit); every one also reports calls, busy_ms, failed.
LAYER_FUNCTIONS = [
    (workloads.MAIN, None, None),
    (workloads.NIM_SUM, "p50_us", "us"),
    (workloads.PARSE, "p50_us", "us"),
    (workloads.CLASSIFY, "p50_us", "us"),
    (workloads.REORDER, "p50_us", "us"),
    (workloads.ADVISE, "p50_us", "us"),
    (workloads.WINNING, "p50_us", "us"),
    (workloads.CENSUS, "triples_per_s", "1/s"),
    (workloads.GRID, "pixels_per_s", "1/s"),
    (workloads.PGM, "pixels_per_s", "1/s"),
    (workloads.MEX, "elements_per_s", "1/s"),
    (workloads.GREEDY, "cells_per_s", "1/s"),
    (workloads.VERIFY, "cells_per_s", "1/s"),
    (workloads.TEXT, "bytes_per_s", "B/s"),
]


def per_layer_units() -> dict[str, str]:
    units = {
        "import.interpreter_ms": "ms",
        "import.numpy_ms": "ms",
        "import.nimtriples_ms": "ms",
        "import.probes.calls": "count",
        "import.probes.failed": "count",
    }
    for name, stat, unit in LAYER_FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.busy_ms": "ms", f"{name}.failed": "count"})
        if stat:
            units[f"{name}.{stat}"] = unit
    units.update({"trace.overhead_ratio": "ratio", "trace.coverage_ratio": "ratio", "trace.spans": "count"})
    return units


class Tally:
    """Operations attempted and failed; the first few failures go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, what, bad: list[str]) -> None:
        self.attempted += 1
        if bad:
            self.failed += 1
            if self.failed <= 5:
                print(f"failed: {', '.join(bad)} on {what!r:.300}", file=sys.stderr)


def run_op(workload, case, tr, tally: Tally) -> int:
    """Execute one case (timed, in ns), then check it and count the outcome."""
    span = tr.open(workload.op_span)
    start = perf_counter_ns()
    try:
        out = workload.execute(case, tr)
        bad = None
    except Exception as exc:
        bad = [f"raised {exc!r}"]
    elapsed = perf_counter_ns() - start
    tr.close(span)
    if bad is None:
        try:
            bad = workload.check(case, out)
        except Exception as exc:
            bad = [f"check raised {exc!r}"]
        tr.fail(bad)
    tally.add(case, bad)
    return elapsed


def set_up(workload, rng, tally: Tally) -> float:
    """One set-up in seconds: ``workload.setup()`` (the import, in process) and the warm-up calls."""
    cases = workload.warmup_cases(rng)
    start = perf_counter_ns()
    workload.setup()
    base = perf_counter_ns() - start
    return (base + sum(run_op(workload, case, Untraced(), tally) for case in cases)) / 1e9


def set_ups(args, workload, rng, tally: Tally) -> list[float]:
    """The kept set-up times, each scaled by a yardstick run after it.

    An import happens once per process, so after the first in-process
    set-up the in-process workloads repeat it in fresh interpreters, and
    their yardstick is an import timed the same way.  For ``cli`` it is the
    start of an interpreter, timed from outside like the warm-up process.
    """
    settle, samples = (0, 1) if args.tiny else (SETTLE_SETUPS, SETUP_SAMPLES)
    if workload.in_process:
        setup_probes(args, tally, settle)
    else:
        for _ in range(settle):
            set_up(workload, rng, tally)
    kept = []
    for i in range(samples):
        if workload.in_process:
            times = setup_probes(args, tally, 1) if i else [set_up(workload, rng, tally)]
            scale = workloads.IMPORT_YARDSTICK_NS / workloads.import_yardstick(ROOT)
        else:
            times = [set_up(workload, rng, tally)]
            scale = workloads.STARTUP_YARDSTICK_NS / workloads.startup_yardstick(ROOT)
        kept += [t * scale for t in times]
    return kept


def setup_probes(args, tally: Tally, count: int) -> list[float]:
    """The same set-up in fresh interpreters."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    argv += ["--workload", args.workload, "--seed", str(args.seed)] + ["--tiny"] * args.tiny
    samples = []
    for _ in range(count):
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=120)
        try:
            samples.append(float(proc.stdout.splitlines()[-1]))
            tally.add("setup probe", [] if proc.returncode == 0 else ["setup probe"])
        except (IndexError, ValueError):
            tally.add("setup probe", [f"setup probe exit {proc.returncode}: {proc.stderr[-300:]}"])
    return samples


class Timings:
    """Operation times in ns, kept in constant memory: the count and total,
    and a uniform sample of at most ``RESERVOIR`` times for the percentiles."""

    def __init__(self, seed: int) -> None:
        self.count = 0
        self.total_ns = 0
        self.sample = array("q")
        self._rng = random.Random(seed)

    def add(self, ns: int) -> None:
        self.count += 1
        self.total_ns += ns
        if len(self.sample) < RESERVOIR:
            self.sample.append(ns)
        else:
            slot = self._rng.randrange(self.count)
            if slot < RESERVOIR:
                self.sample[slot] = ns

    def ops_per_s(self) -> float:
        return self.count / self.total_ns * 1e9

    def percentile_ms(self, q: float) -> float:
        """Linear interpolation between closest ranks, as ``statistics.quantiles`` inclusive."""
        ordered = sorted(self.sample)
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return (ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)) / 1e6


def loop(workload, rng, tr, tally, seconds, min_ops, max_ops=sys.maxsize, keep=False, steady=False):
    """Whole cycles until both ``seconds`` and ``min_ops`` are reached (or ``max_ops``).

    With ``steady``, each slice of ``workload.slice`` operations lies between
    two runs of the workload's yardstick, and its operation times are scaled
    by the yardstick's nominal time over the mean of those two runs.
    Returns the operations' ``Timings``, the mean scale and, if ``keep``,
    the cases run.
    """
    timings = Timings(rng.getrandbits(32))
    kept = []
    scales = []
    before = workload.yardstick() if steady else None
    pending = []

    def end_slice():
        nonlocal before
        scale = 1.0
        if steady:
            after = workload.yardstick()
            scale = 2 * workload.yardstick_ns / (before + after)
            scales.append(scale)
            before = after
        for ns in pending:
            timings.add(round(ns * scale))
        pending.clear()

    ops = 0
    start = perf_counter()
    while ops < max_ops and (ops < min_ops or perf_counter() - start < seconds):
        cases = workload.cycle(rng)
        if keep:
            kept.extend(cases)
        for case in cases:
            pending.append(run_op(workload, case, tr, tally))
            ops += 1
            if len(pending) == workload.slice:
                end_slice()
    if pending:
        end_slice()
    return timings, statistics.fmean(scales) if scales else 1.0, kept


def end_to_end(args, workload, tally: Tally) -> tuple[dict, dict]:
    rng = random.Random(args.seed)
    setup = set_ups(args, workload, rng, tally)
    min_ops = 20 if args.tiny else MIN_OPS
    timings, scale, _ = loop(workload, rng, Untraced(), tally, args.seconds, min_ops, steady=True)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": timings.ops_per_s(),
        "op_p50_ms": timings.percentile_ms(0.5),
        "op_p90_ms": timings.percentile_ms(0.9),
        "success_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    meta = {
        "ops": timings.count,
        "percentile_samples": len(timings.sample),
        "mean_scale": scale,
        "setup_times_s": setup,
    }
    return values, meta


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time in ms per module, from ``-X importtime`` output."""
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            out.setdefault(parts[2].strip(), int(parts[1]) / 1000)
    return out


def import_probes(tr: Tracer, tally: Tally, count: int) -> dict[str, float]:
    """Interpreter start-up alone, and the import of numpy and nimtriples, in subprocesses."""
    run = functools.partial(
        subprocess.run, capture_output=True, text=True, env=workloads.child_env(ROOT), cwd=ROOT, timeout=120
    )
    interpreter, numpy_ms, nimtriples_ms = [], [], []
    root = tr.open("import")
    for _ in range(count):
        start = perf_counter_ns()
        proc = tr.call("import.interpreter", run, [sys.executable, "-c", "pass"])
        interpreter.append((perf_counter_ns() - start) / 1e6)
        bad = [] if proc.returncode == 0 else ["import.interpreter"]
        argv = [sys.executable, "-X", "importtime", "-c", "import nimtriples"]
        proc = tr.call("import.importtime", run, argv)
        times = parse_importtime(proc.stderr)
        if proc.returncode == 0 and "nimtriples" in times:
            nimtriples_ms.append(times["nimtriples"])
            # After a lazy-import change numpy may not load with the package at all.
            numpy_ms.append(times.get("numpy", 0.0))
        else:
            bad.append("import.importtime")
        tally.add("import probe", bad)
        tr.fail(bad)
    tr.close(root)
    return {
        "import.interpreter_ms": statistics.median(interpreter),
        "import.numpy_ms": statistics.median(numpy_ms) if numpy_ms else 0.0,
        "import.nimtriples_ms": statistics.median(nimtriples_ms) if nimtriples_ms else 0.0,
        "import.probes.calls": 2 * count,
        "import.probes.failed": tr.failed["import.interpreter"] + tr.failed["import.importtime"],
    }


def traced(args, workload, tally: Tally) -> tuple[dict, dict]:
    rng = random.Random(args.seed)
    set_ups(args, workload, rng, tally)
    max_ops = TRACE_MAX_OPS.get(workload.name, sys.maxsize)
    plain, _, cases = loop(workload, rng, Untraced(), tally, args.seconds / 2, 1, max_ops, keep=True)
    tr = Tracer()
    spanned_ns = 0
    for op_id, case in enumerate(cases):
        tr.op_id = op_id
        spanned_ns += run_op(workload, case, tr, tally)
    tr.op_id = -1
    if workload.name == "cli":
        root = tr.open("cli.inprocess")
        for case in cases:
            try:
                bad = [workloads.MAIN] if workload.check(case, workload.main_in_process(case, tr)) else []
            except (Exception, SystemExit) as exc:
                bad = [f"{workloads.MAIN} raised {exc!r}"]
            tr.fail(bad)
            tally.add(case, bad)
        tr.close(root)
    values = import_probes(tr, tally, 1 if args.tiny else IMPORT_PROBES)
    stats = tr.stats()
    for name, stat, _ in LAYER_FUNCTIONS:
        s = stats.get(name, {"calls": 0, "self_ns": 0, "durations": []})
        values[f"{name}.calls"] = s["calls"]
        values[f"{name}.busy_ms"] = s["self_ns"] / 1e6
        values[f"{name}.failed"] = tr.failed[name]
        if stat == "p50_us":
            values[f"{name}.p50_us"] = statistics.median(s["durations"]) / 1e3 if s["calls"] else 0.0
        elif stat:
            values[f"{name}.{stat}"] = tr.work[name] / (s["self_ns"] / 1e9) if s["self_ns"] else 0.0
    values["trace.overhead_ratio"] = spanned_ns / plain.total_ns
    values["trace.coverage_ratio"] = tr.coverage(workload.op_span)
    values["trace.spans"] = len(tr.start)
    path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
    tr.write(path)
    return values, {"traced_ops": len(cases), "trace_file": str(path.relative_to(ROOT))}


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, env=env, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(args) -> dict:
    workload = workloads.WORKLOADS[args.workload](args.tiny, ROOT)
    tally = Tally()
    try:
        if args.trace:
            values, info = traced(args, workload, tally)
            units = per_layer_units()
        else:
            values, info = end_to_end(args, workload, tally)
            units = END_TO_END
    finally:
        workload.cleanup()
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "sizes": workload.sizes,
        **info,
    }
    print(json.dumps({"meta": meta}))
    for name, unit in units.items():
        print(f"  {name} = {values[name]} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nimtriples" / "__init__.py").is_file():
        print(f"error: no nimtriples package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        workload = workloads.WORKLOADS[args.workload](args.tiny, ROOT)
        print(set_up(workload, random.Random(args.seed), Tally()))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
