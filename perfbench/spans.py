"""In-memory spans and counters for the traced benchmark run.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span in the same list (-1 at the root) and `op` identifies the
operation the span belongs to. Spans are recorded around calls into the
program from the benchmark's own code; nothing inside `src/` is traced.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Iterator, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int


class Tracer:
    """Collects spans and integer-or-float counters for one process."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.ops = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, 0))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = self.spans[index]._replace(end=time.perf_counter())

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def merge(self, spans: list[Span], counters: Counter) -> None:
        """Append the spans of one operation, recorded by another tracer
        (possibly in a worker process), re-basing their parent indices."""
        base = len(self.spans)
        for s in spans:
            self.spans.append(s._replace(parent=s.parent + base if s.parent >= 0 else -1, op=self.ops))
        self.counters.update(counters)
        self.ops += 1


class NullTracer:
    """Tracing off: spans and counters cost one no-op call each."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        pass


NULL = NullTracer()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total seconds and total self seconds."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
    return out
