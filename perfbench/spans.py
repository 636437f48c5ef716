"""In-memory spans recorded by the benchmark around its calls into the
package, plus the self-time and percentile arithmetic applied to them.

A span is (name, start, end, parent, run id, attributes).  Spans are kept in
a list while the benchmark runs and written out once, at the end, so that
recording one costs two clock reads and a list append.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
import time
from dataclasses import asdict, dataclass, field

_NULL_SPAN = contextlib.nullcontext()


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    run_id: str
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans per thread.  A disabled tracer hands out one
    shared no-op context, which is how the untraced runs measure."""

    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NULL_SPAN
        return self._record(name, attrs)

    @contextlib.contextmanager
    def _record(self, name: str, attrs: dict):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, self.run_id, name, start, end, attrs))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.span_id)]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the part of
    its interval that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    totals: dict[str, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[s.name] = totals.get(s.name, 0.0) + s.seconds - covered
    return totals


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_percentile(values: list[float], q: float, beyond: int = 10) -> float:
    """Nearest-rank ``q`` percentile.  Raises unless at least ``beyond``
    values lie above its rank."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < beyond:
        raise ValueError(
            f"p{round(100 * q)} needs {beyond} values beyond it; got {len(ordered)} values"
        )
    return ordered[rank - 1]
