"""A self-contained span recorder for the benchmark's traced runs.

It deliberately imports nothing from ``repro`` (``repro.obs`` included), so
a change to the program's own telemetry cannot change how the benchmark
measures.  Spans are kept in memory and written out when a run ends.

A span has a name, a start, an end and the span that was open on the same
thread when it began (its parent).  A span's *self time* is its duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field

__all__ = ["Span", "SpanRecorder", "interval_union", "self_times"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    args: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def interval_union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        elif end > cover_end:
            cover_end = end
    if cover_end is not None:
        total += cover_end - cover_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - interval_union(children.get(span.id, []))
        for span in spans
    }


class SpanRecorder:
    """Thread-safe in-memory span store with per-thread parent stacks."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.origin = clock()
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple[int, str, float, int | None]:
        """Begin a span on this thread; pass the token to :meth:`close`."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return (span_id, name, self.clock(), parent)

    def close(self, token: tuple[int, str, float, int | None], **args: float) -> Span:
        end = self.clock()
        span_id, name, start, parent = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        elif span_id in stack:
            stack.remove(span_id)
        span = Span(span_id, name, start, end, parent, threading.get_ident(), args)
        with self._lock:
            self.spans.append(span)
        return span

    def add(self, name: str, amount: float = 1.0) -> None:
        """Accumulate a named counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a top-level span measured outside this thread's stack."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self.spans.append(Span(span_id, name, start, end, None, threading.get_ident()))

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive busy seconds and self seconds."""
        selfs = self_times(self.spans)
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["busy_s"] += span.duration
            row["self_s"] += selfs[span.id]
        return table

    def top_level_cover(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` covered by spans that have no parent."""
        return interval_union(
            [
                (max(s.start, start), min(s.end, end))
                for s in self.spans
                if s.parent is None and s.end > start and s.start < end
            ]
        )

    def write_chrome_trace(self, path: str, metadata: dict[str, object]) -> str:
        """Write the spans as a Chrome-trace (``chrome://tracing``) JSON file."""
        events: list[dict[str, object]] = []
        threads: dict[int, int] = {}
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = threads.setdefault(span.thread, len(threads))
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - self.origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": os.getpid(),
                    "tid": tid,
                    "args": span.args,
                }
            )
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "metadata": metadata}, handle)
        return path
