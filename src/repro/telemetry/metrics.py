"""Process-wide metrics registry: counters, gauges, and histograms.

The registry is deliberately tiny and dependency-free.  It is the
always-on half of the telemetry layer: parent-side code (the sweep
engine, the backends, the serve daemon) increments counters at cell
granularity, which is cheap enough to leave enabled everywhere.  The
disabled path is a single attribute check followed by a return, so the
hot loops keep their throughput floors.

Histograms use *fixed* bucket edges chosen at observation time.  Two
histograms recorded against the same metric name therefore always have
identical edges, which makes merging worker snapshots into the parent a
deterministic element-wise sum — no bucket rebalancing, no
order-dependence.

Worker processes never write to the parent registry directly.  Cell
scoped measurements (kernel timings under sampling, stacked-run counts)
travel back through the existing result channel as the compare-excluded
``CellResult.metrics`` tuple and are merged by the parent in its
``on_result`` callback, so serial, pool, and shared-memory execution all
produce the same ledger.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_LATENCY_EDGES",
    "DEFAULT_SIZE_EDGES",
    "Histogram",
    "MetricsRegistry",
    "count",
    "get_registry",
    "metrics_enabled",
    "observe",
    "set_gauge",
    "set_metrics_enabled",
    "snapshot_delta",
]

# Seconds.  Covers everything from a sub-millisecond lite cell to a
# multi-second stacked group without per-call edge construction.
DEFAULT_LATENCY_EDGES: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

# Counts (chunk sizes, rounds, batch widths): powers of two.
DEFAULT_SIZE_EDGES: tuple[float, ...] = (
    1.0,
    2.0,
    4.0,
    8.0,
    16.0,
    32.0,
    64.0,
    128.0,
    256.0,
    512.0,
    1024.0,
)


@dataclass
class Histogram:
    """Fixed-edge histogram.  Bucket ``i`` counts values ``<= edges[i]``;
    the final bucket is the overflow bucket."""

    edges: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    samples: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.total += value
        self.samples += 1

    def to_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.samples,
        }

    def merge_dict(self, payload: dict) -> None:
        edges = tuple(payload.get("edges", ()))
        if edges != self.edges:
            raise ValueError(
                f"histogram edge mismatch: {edges!r} vs {self.edges!r}"
            )
        for i, c in enumerate(payload.get("counts", ())):
            self.counts[i] += int(c)
        self.total += float(payload.get("sum", 0.0))
        self.samples += int(payload.get("count", 0))


class MetricsRegistry:
    """Thread-safe bag of named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(
        self,
        name: str,
        value: float,
        edges: tuple[float, ...] = DEFAULT_LATENCY_EDGES,
    ) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(edges)
            hist.observe(value)

    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def snapshot(self) -> dict:
        """JSON-serializable view: deterministically key-sorted."""
        with self._lock:
            return {
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
                "histograms": {
                    k: self._histograms[k].to_dict()
                    for k in sorted(self._histograms)
                },
            }

    def merge(self, payload: dict) -> None:
        """Fold another snapshot (e.g. from a worker or a peer server)
        into this registry.  Counters and histograms add; gauges take
        the incoming value."""
        with self._lock:
            for name, value in payload.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            for name, value in payload.get("gauges", {}).items():
                self._gauges[name] = value
            for name, data in payload.get("histograms", {}).items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = Histogram(
                        tuple(data.get("edges", ()))
                    )
                hist.merge_dict(data)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def snapshot_delta(before: dict, after: dict) -> dict:
    """What happened between two ``snapshot()`` calls on one registry.

    Counters and histogram counts subtract; gauges report the ``after``
    value.  Zero-delta entries are dropped so the result reads as "what
    this sweep did" rather than process-lifetime totals.
    """
    counters = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0.0)
        if delta:
            counters[name] = delta
    histograms = {}
    for name, data in after.get("histograms", {}).items():
        prev = before.get("histograms", {}).get(name)
        if prev is None:
            if data.get("count", 0):
                histograms[name] = data
            continue
        counts = [c - p for c, p in zip(data["counts"], prev["counts"])]
        count_delta = data["count"] - prev["count"]
        if count_delta:
            histograms[name] = {
                "edges": data["edges"],
                "counts": counts,
                "sum": data["sum"] - prev["sum"],
                "count": count_delta,
            }
    return {
        "counters": counters,
        "gauges": dict(after.get("gauges", {})),
        "histograms": histograms,
    }


_REGISTRY = MetricsRegistry()
_ENABLED = True


def _unlock_after_fork() -> None:
    """A forked child starts with a free registry lock: the thread that
    may have held it at the fork does not exist in the child."""
    _REGISTRY._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_unlock_after_fork)


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def metrics_enabled() -> bool:
    return _ENABLED


def set_metrics_enabled(flag: bool) -> bool:
    """Toggle the cheap always-on counters; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


def count(name: str, value: float = 1.0) -> None:
    if not _ENABLED:
        return
    _REGISTRY.inc(name, value)


def set_gauge(name: str, value: float) -> None:
    if not _ENABLED:
        return
    _REGISTRY.gauge(name, value)


def observe(
    name: str,
    value: float,
    edges: tuple[float, ...] = DEFAULT_LATENCY_EDGES,
) -> None:
    if not _ENABLED:
        return
    _REGISTRY.observe(name, value, edges)
