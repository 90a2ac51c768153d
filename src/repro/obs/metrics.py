"""Metrics registry: named counters, gauges and histograms.

Components register instruments at attach time (or lazily on first use via
the get-or-create accessors) instead of growing ad-hoc ``self.foo += 1``
attributes that every report then has to know about.  The registry is the
single place a run's quantitative state can be enumerated from:
``registry.snapshot()`` returns a plain-dict view suitable for JSON.

Same overhead contract as the tracer: instruments mutate plain Python
ints/lists, never touch the kernel, the RNG, or the event queue, and the
registry only exists when observability was explicitly attached.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, Optional, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "count",
           "DEFAULT_LATENCY_BUCKETS_MS"]

# Simulated-millisecond bucket upper bounds for latency-ish histograms.
# Chosen to resolve the paper's range of interest: sub-ms NDB primitives up
# through multi-second retry/failover tails.
DEFAULT_LATENCY_BUCKETS_MS: Sequence[float] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0,
)


class Counter:
    """Monotonically increasing named count."""

    __slots__ = ("name", "value", "tags")

    def __init__(self, name: str, tags: Optional[dict] = None):
        self.name = name
        self.value = 0
        self.tags = tags or {}

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> dict:
        return {"type": "counter", "name": self.name, "value": self.value, "tags": self.tags}


class Gauge:
    """A point-in-time reading, either set directly or callable-backed.

    Callable-backed gauges (``fn`` given) read live component state at
    snapshot time — e.g. a namenode's ``ops_served`` attribute or the NDB
    cluster's active-transaction count — so existing plain-int counters
    keep their types (tests compare them as ints) while still being
    enumerable through the registry.
    """

    __slots__ = ("name", "_value", "fn", "tags")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None,
                 tags: Optional[dict] = None):
        self.name = name
        self._value = 0.0
        self.fn = fn
        self.tags = tags or {}

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        if self.fn is not None:
            return self.fn()
        return self._value

    def as_dict(self) -> dict:
        return {"type": "gauge", "name": self.name, "value": self.value, "tags": self.tags}


class Histogram:
    """Fixed-boundary histogram over simulated-time values (milliseconds).

    ``buckets`` are upper bounds; an implicit overflow bucket catches
    values beyond the last boundary.  ``bucket_counts[i]`` counts values
    ``v`` with ``buckets[i-1] < v <= buckets[i]`` (first bucket:
    ``v <= buckets[0]``), matching Prometheus ``le`` semantics.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "total", "min", "max", "tags")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
                 tags: Optional[dict] = None):
        self.name = name
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.tags = tags or {}

    def observe(self, value: float) -> None:
        # bisect_right on "upper bound >= value" => bisect_left over bounds;
        # we want v == boundary to land in that boundary's bucket (le).
        idx = bisect_right(self.buckets, value)
        if idx > 0 and self.buckets[idx - 1] == value:
            idx -= 1
        self.bucket_counts[idx] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> "Histogram":
        """Return a new histogram combining ``self`` and ``other``.

        Merge is associative and commutative on bucket counts, count, total
        and min/max (the shard-merge contract: folding per-shard histograms
        in any order yields the same numbers; callers still fold in sorted
        shard order so derived artifacts are byte-identical).  Both sides
        must share the same bucket boundaries.
        """
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot merge histograms with different buckets: "
                f"{self.name!r} vs {other.name!r}"
            )
        merged = type(self)(self.name, self.buckets, dict(self.tags))
        merged.bucket_counts = [
            a + b for a, b in zip(self.bucket_counts, other.bucket_counts)
        ]
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        mins = [m for m in (self.min, other.min) if m is not None]
        maxs = [m for m in (self.max, other.max) if m is not None]
        merged.min = min(mins) if mins else None
        merged.max = max(maxs) if maxs else None
        return merged

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: upper bound of the bucket holding rank q."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= rank and n:
                if i < len(self.buckets):
                    return self.buckets[i]
                return self.max if self.max is not None else self.buckets[-1]
        return self.max if self.max is not None else 0.0

    def as_dict(self) -> dict:
        return {
            "type": "histogram",
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "tags": self.tags,
        }


def count(env, name: str) -> None:
    """Bump counter ``name`` in ``env``'s registry; a no-op when untraced.

    For events nothing else counts.  Where a component already keeps a
    plain int, the registry reads that through a callable gauge instead
    (:func:`repro.obs.register_deployment_metrics`).
    """
    obs = env.obs
    if obs is not None:
        obs.registry.counter(name).inc()


class MetricsRegistry:
    """Get-or-create home for all instruments in one run."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create -----------------------------------------------------
    def counter(self, name: str, tags: Optional[dict] = None) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name, tags)
        return c

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None,
              tags: Optional[dict] = None) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name, fn, tags)
        elif fn is not None:
            g.fn = fn
        return g

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
                  tags: Optional[dict] = None) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, buckets, tags)
        return h

    # -- views -------------------------------------------------------------
    def get(self, name: str):
        return (self._counters.get(name)
                or self._gauges.get(name)
                or self._histograms.get(name))

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument, JSON-serialisable."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.as_dict() for n, h in sorted(self._histograms.items())},
        }
