"""Spans recorded around public calls, and the self-time arithmetic on them.

A span is (name, start, end, parent index, task id). Spans stay in memory
and are written out once, when the run ends. A span's self time is its
duration minus the durations of its children.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

REPLAY = "theorem.replay"   # root of the step-by-step verify_theorem replay


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    task: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.task = ""

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, 0.0, 0.0, parent, self.task)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = perf_counter()
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.task]
                       for s in self.spans], fh)


def self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """name -> (summed self time, number of spans)."""
    out: dict[str, tuple[float, int]] = {}
    for s, own in zip(spans, self_times(spans)):
        total, calls = out.get(s.name, (0.0, 0))
        out[s.name] = (total + own, calls + 1)
    return out


def coverage(spans: list[Span]) -> float:
    """Self time of the layer spans inside replays over the time of the
    direct verify_theorem calls; 0 when the run made none."""
    own = self_times(spans)
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        if s.parent is not None:
            inside[i] = inside[s.parent] or spans[s.parent].name == REPLAY
    replayed = sum(t for t, ins in zip(own, inside) if ins)
    direct = sum(s.end - s.start for s in spans
                 if s.name == "theorem.verify_theorem")
    return replayed / direct if direct else 0.0


def span_cost(samples: int = 20000) -> float:
    """Seconds one empty span costs: the tracer's own bookkeeping."""
    tracer = Tracer()
    t0 = perf_counter()
    for _ in range(samples):
        with tracer.span("probe"):
            pass
    return (perf_counter() - t0) / samples
