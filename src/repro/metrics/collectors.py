"""Throughput and latency collection for benchmark runs."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from ..types import OpResult, OpType

__all__ = ["percentile", "MetricsCollector"]


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank-interpolated percentile; ``p`` in [0, 100]."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (p / 100.0) * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    frac = rank - low
    value = sorted_values[low] * (1 - frac) + sorted_values[high] * frac
    # Clamp: float interpolation may escape the bounds by an ulp.
    return min(max(value, sorted_values[0]), sorted_values[-1])


@dataclass
class MetricsCollector:
    """Records operation results inside a measurement window.

    The driver calls :meth:`record` for every completed op; only ops that
    *finish* inside ``[window_start, window_end]`` count (set the window
    with :meth:`open_window` / :meth:`close_window`).
    """

    window_start: Optional[float] = None
    window_end: Optional[float] = None
    completed: int = 0
    failed: int = 0
    retried: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    # What the window's failed ops were: ``OpResult.error`` (an exception
    # class name) -> count; ``PointResult.failed_by_error`` reports it.  Not
    # called that here because bench_e2e's TallyCollector keeps its own
    # tally under that name and then delegates to ``record``; not in
    # ``summary()`` because scale artifacts hash that (pinned goldens).
    failed_errors: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    by_op: dict[OpType, int] = field(default_factory=lambda: defaultdict(int))
    latencies_by_op: dict[OpType, list[float]] = field(
        default_factory=lambda: defaultdict(list)
    )

    def open_window(self, now: float) -> None:
        self.window_start = now

    def close_window(self, now: float) -> None:
        self.window_end = now

    def _in_window(self, t: float) -> bool:
        if self.window_start is None:
            return False  # measurement has not started (warmup)
        if t < self.window_start:
            return False
        if self.window_end is not None and t > self.window_end:
            return False
        return True

    def record(self, result: OpResult) -> None:
        # ``_in_window``, inlined: this runs once per simulated op.
        start = self.window_start
        end_ms = result.end_ms
        if start is None or end_ms < start:
            return
        end = self.window_end
        if end is not None and end_ms > end:
            return
        self.retried += result.retries
        if not result.ok:
            self.failed += 1
            self.failed_errors[result.error or "unclassified"] += 1
            return
        latency = end_ms - result.start_ms
        self.completed += 1
        op = result.op
        self.by_op[op] += 1
        self.latencies_ms.append(latency)
        self.latencies_by_op[op].append(latency)

    def merge(self, other: "MetricsCollector") -> "MetricsCollector":
        """Return a new collector combining two measurement shards.

        The merge is associative and commutative: counters add, per-op maps
        add key-wise, the window is the union (min start, max end), and the
        combined latency populations are sorted so the result never depends
        on which shard contributed first.  Sorting is safe because every
        consumer of the latency lists (percentiles, averages) is
        order-insensitive.  Callers that fold many shards should still do so
        in sorted shard order so any future order-sensitive field stays
        deterministic.
        """
        merged = MetricsCollector()
        starts = [s for s in (self.window_start, other.window_start) if s is not None]
        ends = [e for e in (self.window_end, other.window_end) if e is not None]
        merged.window_start = min(starts) if starts else None
        merged.window_end = max(ends) if ends else None
        merged.completed = self.completed + other.completed
        merged.failed = self.failed + other.failed
        merged.retried = self.retried + other.retried
        merged.latencies_ms = sorted(self.latencies_ms + other.latencies_ms)
        for source in (self, other):
            for op, count in source.by_op.items():
                merged.by_op[op] += count
            for error, count in source.failed_errors.items():
                merged.failed_errors[error] += count
        for source in (self.latencies_by_op, other.latencies_by_op):
            for op, values in source.items():
                merged.latencies_by_op[op].extend(values)
        for op in merged.latencies_by_op:
            merged.latencies_by_op[op].sort()
        return merged

    def summary(self) -> dict:
        """Deterministic, JSON-ready view used by merged scale artifacts."""
        pcts = self.latency_percentiles()
        return {
            "completed": self.completed,
            "failed": self.failed,
            "retried": self.retried,
            "window_ms": self.window_ms,
            "throughput_ops_s": self.throughput_ops_per_sec(),
            "avg_latency_ms": self.avg_latency_ms(),
            "p50_ms": pcts[50],
            "p90_ms": pcts[90],
            "p99_ms": pcts[99],
            "by_op": {op.name: count for op, count in sorted(
                self.by_op.items(), key=lambda kv: kv[0].name)},
        }

    # -- derived ----------------------------------------------------------
    @property
    def window_ms(self) -> float:
        if self.window_start is None or self.window_end is None:
            return 0.0
        return self.window_end - self.window_start

    def throughput_ops_per_sec(self) -> float:
        window = self.window_ms
        return self.completed / window * 1000.0 if window > 0 else 0.0

    def avg_latency_ms(self) -> float:
        if not self.latencies_ms:
            return 0.0
        return sum(self.latencies_ms) / len(self.latencies_ms)

    def latency_percentiles(self, ps=(50, 90, 99), op: Optional[OpType] = None):
        # ``.get``: indexing the defaultdict would insert an empty list for an
        # op that never completed, which merge() would then carry around.
        values = self.latencies_by_op.get(op, ()) if op is not None else self.latencies_ms
        values = sorted(values)
        return {p: percentile(values, p) for p in ps}

    def failure_rate(self) -> float:
        total = self.completed + self.failed
        return self.failed / total if total else 0.0
