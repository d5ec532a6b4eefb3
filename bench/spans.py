"""Spans and counters recorded by the benchmark around each layer call.

A span is (name, start, end, parent, op id).  Spans stay in memory and
are written out once, when the run ends.  Tracing inside ``src/`` is not
part of this harness: the spans wrap calls into tagforge's public
functions from the benchmark's own code.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Plain:
    """The untraced context: calls go straight through, nothing is kept."""

    traced = False

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def count(name, amount=1):
        pass


class Tracer:
    traced = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._open: list[int] = []

    def start(self, name: str) -> int:
        if name == "op":  # each op span starts a new op id
            self.op_id += 1
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, perf_counter(), 0.0, parent, self.op_id))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int):
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, perf_counter(), parent, op)
        self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        index = self.start(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def count(self, name: str, amount: float = 1):
        self.counts[name] += amount

    def peak(self, name: str, value: float):
        self.peaks[name] = max(self.peaks[name], value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds (busy minus
        the time covered by the span's direct children)."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def op_busy(self, exclude: str) -> dict[int, float]:
        """Per op id: the op span's duration minus its ``exclude`` children."""
        totals: dict[int, float] = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if name == "op":
                totals[op] += end - start
            elif name == exclude:
                totals[op] -= end - start
        return totals

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                handle.write(json.dumps(record) + "\n")
