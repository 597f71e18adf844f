"""In-memory span tracer and the arithmetic behind per-layer self times.

A span records its name, start, end and parent span. Spans stay in memory
until the run ends. A layer's self time is its span's duration minus the part
of that interval its child spans cover, minus time that aggregate counters
recorded while the span was the innermost open one (functions called once per
Euler step, such as `kinetics.rates`, are counted and timed in aggregate, not
as one span per call).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    agg_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` (start, end) clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - union_length(children[s.id], s.start, s.end) - s.agg_s
        for s in spans
    }


class Tracer:
    """Records spans and counters; the parent of a new span is the innermost
    span still open."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), name=name, parent=parent, start=self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def wrap(self, fn, name: str, on_result=None, on_error=None):
        """`fn` traced as span `name`; `on_result(result, args, kwargs)` and
        `on_error(exc)` run after the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(span)
                if on_error is not None:
                    on_error(exc)
                raise
            self.end(span)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def wrap_aggregate(self, fn, name: str):
        """`fn` counted and timed in aggregate under `name.calls` and
        `name.self_s`; its time is charged to the enclosing span's `agg_s`."""
        clock = self.clock
        counters = self.counters
        calls_key, time_key = f"{name}.calls", f"{name}.self_s"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                counters[calls_key] += 1
                counters[time_key] += elapsed
                if self._stack:
                    self._stack[-1].agg_s += elapsed

        return counted

    def summary(self) -> dict[str, float]:
        """Counters plus `<name>.calls` and `<name>.self_s` for every span name."""
        out = dict(self.counters)
        selfs = self_times(self.spans)
        for s in self.spans:
            out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
            out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + selfs[s.id]
            out[f"{s.name}.total_s"] = out.get(f"{s.name}.total_s", 0.0) + s.duration
        return out
