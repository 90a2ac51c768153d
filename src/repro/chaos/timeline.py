"""Availability timeline: per-interval success/failure during a chaos run.

Extends the benchmark :class:`~repro.metrics.collectors.MetricsCollector`
with fixed-width time buckets, so a scenario can report availability over
the fault timeline (operational before the fault, degraded during, healed
after) the way the paper narrates its AZ-outage story.
"""

from __future__ import annotations

from ..metrics.collectors import MetricsCollector
from ..types import OpResult

__all__ = ["TimelineCollector"]


class TimelineCollector(MetricsCollector):
    """Metrics collector that additionally buckets results by end time."""

    def __init__(self, bucket_ms: float = 20.0):
        super().__init__()
        if bucket_ms <= 0:
            raise ValueError("bucket_ms must be positive")
        self.bucket_ms = bucket_ms
        # bucket index -> [ok count, failed count]
        self._buckets: dict[int, list[int]] = {}

    def record(self, result: OpResult) -> None:
        bucket = self._buckets.setdefault(int(result.end_ms // self.bucket_ms), [0, 0])
        bucket[0 if result.ok else 1] += 1
        super().record(result)

    def merge(self, other: "TimelineCollector") -> "TimelineCollector":
        """Return a new collector combining two shards' timelines.

        Same contract as :meth:`MetricsCollector.merge` — associative,
        commutative, deterministic: base aggregates merge via the parent,
        and per-bucket ok/failed pairs add index-wise.  Both sides must
        share ``bucket_ms`` (bucket indices are only comparable on one
        grid).
        """
        if self.bucket_ms != other.bucket_ms:
            raise ValueError(
                f"cannot merge timelines with different bucket widths: "
                f"{self.bucket_ms} vs {other.bucket_ms}"
            )
        base = super().merge(other)
        merged = TimelineCollector(self.bucket_ms)
        merged.window_start = base.window_start
        merged.window_end = base.window_end
        merged.completed = base.completed
        merged.failed = base.failed
        merged.retried = base.retried
        merged.latencies_ms = base.latencies_ms
        merged.failed_latencies_ms = base.failed_latencies_ms
        merged.by_op.update(base.by_op)
        merged.latencies_by_op.update(base.latencies_by_op)
        for source in (self._buckets, other._buckets):
            for index, (ok, failed) in source.items():
                bucket = merged._buckets.setdefault(index, [0, 0])
                bucket[0] += ok
                bucket[1] += failed
        return merged

    def timeline(self) -> list[dict]:
        """Dense per-bucket rows: ``{"t_ms", "ok", "failed", "availability"}``.

        ``availability`` is ``None`` for buckets with no completions at all
        (total outage looks like silence under a closed-loop driver, not
        failures, so an empty bucket is reported as unavailable-or-idle).
        """
        if not self._buckets:
            return []
        first, last = min(self._buckets), max(self._buckets)
        rows = []
        for index in range(first, last + 1):
            ok, failed = self._buckets.get(index, (0, 0))
            total = ok + failed
            rows.append(
                {
                    "t_ms": index * self.bucket_ms,
                    "ok": ok,
                    "failed": failed,
                    "availability": (ok / total) if total else None,
                }
            )
        return rows
