"""In-memory spans around calls into the library, and the per-layer numbers they give.

A span is a name, a start and an end (``perf_counter_ns``), the index of its
parent span (-1 for a root) and an operation id (-1 outside operations).
Spans live in parallel typed arrays while the benchmark runs and are written
out once, at exit.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns


class Untraced:
    """The tracer's interface with nothing recorded, for the end-to-end runs."""

    def open(self, name):
        return 0

    def close(self, index):
        pass

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, units):
        pass

    def fail(self, names):
        pass


class Tracer:
    """Records one span per call; ``failed`` and ``work`` are counted by span name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.current = -1
        self.op_id = -1
        self.failed: Counter[str] = Counter()
        self.work: Counter[str] = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.end.append(0)
        self.current = index
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self.current = self.parent[index]

    def call(self, name, fn, *args):
        index = self.open(name)
        try:
            return fn(*args)
        except Exception:
            self.failed[name] += 1
            raise
        finally:
            self.close(index)

    def count(self, name: str, units: int) -> None:
        self.work[name] += units

    def fail(self, names: list[str]) -> None:
        self.failed.update(names)

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, self time in ns, and every duration in ns."""
        child = [0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i, nid in enumerate(self.name):
            s = out.setdefault(self.names[nid], {"calls": 0, "self_ns": 0, "durations": []})
            duration = self.end[i] - self.start[i]
            s["calls"] += 1
            s["self_ns"] += duration - child[i]
            s["durations"].append(duration)
        return out

    def coverage(self, op_name: str) -> float:
        """Share of the time inside ``op_name`` spans that their child spans cover."""
        op_nid = self._ids.get(op_name)
        total = covered = 0
        for i, nid in enumerate(self.name):
            if nid == op_nid:
                total += self.end[i] - self.start[i]
            elif self.parent[i] >= 0 and self.name[self.parent[i]] == op_nid:
                covered += self.end[i] - self.start[i]
        return covered / total if total else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        path.write_text(json.dumps(columns))
