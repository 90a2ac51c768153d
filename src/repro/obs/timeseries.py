"""Windowed time-series telemetry over the metrics registry.

The registry (:mod:`repro.obs.metrics`) answers "how many, in total" —
one number per run.  This module answers "how many, *when*": fixed-width
simulated-time windows of operation counts, error counts, latency
histograms, windowed counter deltas, and gauge samples, held in bounded
ring buffers per series (per component and per AZ), so an in-sim monitor
can watch availability and tail latency evolve across a fault timeline
the way a real operator's dashboard would.

The sampler is **dispatch-driven**, not a kernel process.  A periodic
DES sampler process would consume sequence numbers and heap slots, so a
telemetry-on run could never replay a telemetry-off schedule.  Instead,
every instrumented recording site (client op completion, NN/MDS handler,
NDB transaction outcome, network RPC accounting) passes the current
simulated time into the hub; when that time has crossed one or more
window boundaries the hub *rolls*: it seals every completed window into
the ring buffers, samples the registered gauges, and notifies listeners
(the SLO engine).  Since simulated state only changes when events
dispatch, sealing a window at the first recording after its boundary
yields exactly the aggregates a boundary-time sampler would have seen
for counters and histograms, and a deterministic (same-schedule ⇒
same-value) reading for gauges.

Overhead contract, same as the tracer (see DESIGN.md):

* **Zero cost when off.**  ``ObsContext.timeseries`` is ``None`` unless a
  hub was attached; every site is one extra ``obs.timeseries is not
  None`` guard behind the existing ``env.obs is not None`` guard.
* **Schedule neutrality when on.**  The hub only mutates plain Python
  state: it never schedules kernel events, consumes sequence numbers, or
  draws from an RNG.  ``tests/obs/test_sampler_neutrality.py`` pins
  dispatch-hash equality sampler-on vs sampler-off across all nine
  setups.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

from .metrics import DEFAULT_LATENCY_BUCKETS_MS

__all__ = ["OpWindow", "WindowedSeries", "TimeSeriesHub"]


class OpWindow:
    """One sealed window of an operation series: counts + latency buckets."""

    __slots__ = ("count", "errors", "total_ms", "bucket_counts", "max_ms")

    def __init__(self, num_buckets: int):
        self.count = 0
        self.errors = 0
        self.total_ms = 0.0
        self.bucket_counts = [0] * (num_buckets + 1)  # +1 overflow
        self.max_ms = 0.0

    def observe(self, latency_ms: float, ok: bool, buckets: Sequence[float]) -> None:
        self.count += 1
        if not ok:
            self.errors += 1
        self.total_ms += latency_ms
        if latency_ms > self.max_ms:
            self.max_ms = latency_ms
        idx = bisect_right(buckets, latency_ms)
        if idx > 0 and buckets[idx - 1] == latency_ms:
            idx -= 1
        self.bucket_counts[idx] += 1

    def quantile(self, q: float, buckets: Sequence[float]) -> float:
        """Bucket-upper-bound quantile, matching :class:`Histogram.quantile`."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= rank and n:
                if i < len(buckets):
                    return buckets[i]
                return self.max_ms
        return self.max_ms

    def merge_from(self, other: "OpWindow") -> None:
        """Fold ``other`` into this window (commutative + associative)."""
        self.count += other.count
        self.errors += other.errors
        self.total_ms += other.total_ms
        if other.max_ms > self.max_ms:
            self.max_ms = other.max_ms
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "errors": self.errors,
            "total_ms": self.total_ms,
            "max_ms": self.max_ms,
            "bucket_counts": list(self.bucket_counts),
        }


class WindowedSeries:
    """Ring buffer of sealed windows for one series.

    ``kind`` is ``"op"`` (OpWindow rows), ``"counter"`` (windowed float
    sums) or ``"gauge"`` (boundary samples).  Rows are ``(window_index,
    value)`` in strictly increasing index order; the deque bounds memory
    regardless of run length.
    """

    __slots__ = ("name", "kind", "rows", "tags")

    def __init__(self, name: str, kind: str, capacity: int, tags: Optional[dict] = None):
        self.name = name
        self.kind = kind
        self.rows: deque = deque(maxlen=capacity)
        self.tags = tags or {}

    def append(self, window_index: int, value) -> None:
        self.rows.append((window_index, value))

    def as_dict(self, interval_ms: float, buckets: Sequence[float]) -> dict:
        out = {"name": self.name, "kind": self.kind, "tags": self.tags, "rows": []}
        for index, value in self.rows:
            row = {"t_ms": index * interval_ms}
            if self.kind == "op":
                row.update(value.as_dict())
                row["p99_ms"] = value.quantile(0.99, buckets)
                row["availability"] = (
                    (value.count - value.errors) / value.count if value.count else None
                )
            else:
                row["value"] = value
            out["rows"].append(row)
        return out


class TimeSeriesHub:
    """The windowed sampler: per-series ring buffers plus roll/flush logic.

    One hub serves one run.  Recording sites call :meth:`record_op` /
    :meth:`component_sample` / :meth:`inc`; each call first rolls the
    window cursor forward to the window containing ``now``, sealing every
    completed window (and sampling gauges at each seal).  Listeners
    registered with :meth:`subscribe` see every sealed window in order —
    including empty ones, which is how the SLO engine notices silence.
    """

    #: Safety valve: one roll never seals more than this many windows
    #: (a long idle drain would otherwise spin sealing empty windows).
    MAX_SEAL_PER_ROLL = 4096

    def __init__(
        self,
        interval_ms: float = 10.0,
        capacity: int = 1024,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
    ):
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.interval_ms = float(interval_ms)
        self.capacity = capacity
        self.buckets = tuple(buckets)
        self._num_buckets = len(self.buckets)
        self._series: Dict[str, WindowedSeries] = {}
        # Live (unsealed) accumulators for the current window.
        self._live_ops: Dict[str, OpWindow] = {}
        self._live_counters: Dict[str, float] = {}
        self._listeners: List[Callable] = []
        # Cursor: index of the current (open) window.  Starts at window 0;
        # simulated time starts at 0 in every harness.
        self._cursor = 0
        self.windows_sealed = 0
        self._registry = None

    # -- wiring ------------------------------------------------------------
    def bind(self, obs) -> None:
        """Called by :meth:`ObsContext.attach`; links gauge sampling."""
        self._registry = obs.registry

    def subscribe(self, listener: Callable) -> None:
        """``listener(window_index, start_ms, end_ms, ops, counters)`` per seal.

        ``ops`` maps series name -> sealed :class:`OpWindow` (missing ⇒ no
        activity); ``counters`` maps series name -> windowed sum.
        """
        self._listeners.append(listener)

    # -- series accessors --------------------------------------------------
    def _get_series(self, name: str, kind: str, tags: Optional[dict] = None) -> WindowedSeries:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = WindowedSeries(name, kind, self.capacity, tags)
        return series

    def series(self, name: str) -> Optional[WindowedSeries]:
        return self._series.get(name)

    def series_names(self) -> List[str]:
        return sorted(self._series)

    # -- recording ---------------------------------------------------------
    def record_op(self, az, latency_ms: float, ok: bool, now: float) -> None:
        """One finished client operation: aggregate + per-AZ op series."""
        self.roll(now)
        self._observe_op("client.ops", latency_ms, ok)
        if az:  # AZ ids are 1-based; 0 is ANY_AZ (no placement)
            self._observe_op(f"client.ops.az{az}", latency_ms, ok, tags={"az": az})

    def component_sample(self, component: str, host: str, az, duration_ms: float,
                         ok: bool, now: float) -> None:
        """One server-side handler completion (NN / MDS), per component+host."""
        self.roll(now)
        self._observe_op(component, duration_ms, ok)
        self._observe_op(f"{component}.{host}", duration_ms, ok,
                         tags={"host": host, "az": az})

    def inc(self, name: str, now: float, amount: float = 1.0) -> None:
        """Windowed counter: per-window sum of ``amount``."""
        self.roll(now)
        self._live_counters[name] = self._live_counters.get(name, 0.0) + amount

    def _observe_op(self, name: str, latency_ms: float, ok: bool,
                    tags: Optional[dict] = None) -> None:
        window = self._live_ops.get(name)
        if window is None:
            window = self._live_ops[name] = OpWindow(self._num_buckets)
            self._get_series(name, "op", tags)
        window.observe(latency_ms, ok, self.buckets)

    # -- rolling -----------------------------------------------------------
    def roll(self, now: float) -> None:
        """Seal every window fully in the past of ``now``."""
        target = int(now // self.interval_ms)
        if target <= self._cursor:
            return
        # Bound a pathological jump (sealing is O(windows crossed)).
        start = max(self._cursor, target - self.MAX_SEAL_PER_ROLL)
        for index in range(start, target):
            self._seal(index)
        self._cursor = target

    def finalize(self, now: float) -> None:
        """Seal up to and including the window containing ``now``."""
        self.roll(now)
        self._seal(self._cursor)
        self._cursor += 1

    def _seal(self, index: int) -> None:
        ops = self._live_ops
        counters = self._live_counters
        self._live_ops = {}
        self._live_counters = {}
        for name, window in ops.items():
            self._series[name].append(index, window)
        for name, value in counters.items():
            self._get_series(name, "counter").append(index, value)
        # Gauge sampling at the seal boundary: callable-backed registry
        # gauges read live component state, so the sealed value is what a
        # boundary-time scraper would have seen (deterministic because the
        # schedule is).
        if self._registry is not None:
            for gauge in self._registry.gauges:
                self._get_series(gauge.name, "gauge").append(index, float(gauge.value))
        self.windows_sealed += 1
        if self._listeners:
            start_ms = index * self.interval_ms
            end_ms = start_ms + self.interval_ms
            for listener in self._listeners:
                listener(index, start_ms, end_ms, ops, counters)

    # -- merge (the PR-5 shard contract) -----------------------------------
    def merge(self, other: "TimeSeriesHub") -> "TimeSeriesHub":
        """Return a new hub folding two shards' sealed windows together.

        Commutative and associative on every sealed aggregate: op windows
        fold count/error/bucket-wise, counter windows add, gauge windows
        add (shard gauges are per-shard-deployment readings, so the merged
        value is the fleet total).  Both hubs must share interval and
        bucket boundaries.  Live (unsealed) state does not merge — call
        :meth:`finalize` on both sides first.
        """
        if self.interval_ms != other.interval_ms or self.buckets != other.buckets:
            raise ValueError("cannot merge hubs with different interval/buckets")
        merged = TimeSeriesHub(self.interval_ms, self.capacity, self.buckets)
        merged.windows_sealed = max(self.windows_sealed, other.windows_sealed)
        for source in (self, other):
            for name, series in source._series.items():
                target = merged._get_series(name, series.kind, dict(series.tags))
                rows = dict(target.rows)
                for index, value in series.rows:
                    if index in rows:
                        if series.kind == "op":
                            fold = OpWindow(self._num_buckets)
                            fold.merge_from(rows[index])
                            fold.merge_from(value)
                            rows[index] = fold
                        else:
                            rows[index] = rows[index] + value
                    else:
                        if series.kind == "op":
                            fold = OpWindow(self._num_buckets)
                            fold.merge_from(value)
                            rows[index] = fold
                        else:
                            rows[index] = value
                target.rows = deque(
                    sorted(rows.items()), maxlen=self.capacity
                )
        return merged

    # -- views -------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready view of every series' sealed windows."""
        return {
            "interval_ms": self.interval_ms,
            "windows_sealed": self.windows_sealed,
            "buckets": list(self.buckets),
            "series": {
                name: self._series[name].as_dict(self.interval_ms, self.buckets)
                for name in sorted(self._series)
            },
        }
