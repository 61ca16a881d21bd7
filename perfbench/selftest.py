"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, prints exactly the metrics
``BENCHMARK.json`` names, each with its unit, and no failures; that one
deliberately wrong reference makes the failures rise; and that without the
package sources the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--seed", "7", "--seconds", "1", "--tiny"]


def last_json(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


def check_result(result: dict, declared: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    names = {m["name"] for m in declared}
    assert set(result["metrics"]) == names, f"{label}: {set(result['metrics']) ^ names}"
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']!r}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']} = {got['value']!r}"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, label


def wrong_reference_raises_failures() -> None:
    """Run ``scalar`` in process with a Nim-sum reference that is off by one."""
    sys.path.insert(0, str(HERE))
    import reference
    import run

    right = reference.nim_sum
    reference.nim_sum = lambda a, b: (a ^ b) + 1
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            run.main(["--workload", "scalar", "--trace", "0", *TINY])
    finally:
        reference.nim_sum = right
    result = last_json(out.getvalue())
    assert not result["correct"] and result["failed"] > 0, result
    assert result["metrics"]["success_ratio"]["value"] < 1, result


def refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "scalar", "--trace", "0", *TINY],
            capture_output=True, text=True, cwd=bare, timeout=170,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload['name']} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                 "--trace", str(trace), *TINY],
                capture_output=True, text=True, cwd=ROOT, timeout=170,
            )
            assert proc.returncode == 0, f"{label}: {proc.stderr}"
            check_result(last_json(proc.stdout), spec[key], label)
            print(f"ok: {label} prints every {key} metric with its unit")
    wrong_reference_raises_failures()
    print("ok: a wrong reference raises the failure count")
    refuses_without_sources()
    print("ok: without the package sources it exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
