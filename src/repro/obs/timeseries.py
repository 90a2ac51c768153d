"""Windowed op series: what completed, and how, in each slice of simulated time.

The registry (:mod:`repro.obs.metrics`) answers "how many, in total" — one
number per run.  This module answers "how many, *when*": per fixed-width
window of simulated time, one :class:`OpWindow` (latency histogram plus
failed-op count) for each op series, and a sum for each windowed counter.
It holds what the SLO engine and the chaos artifacts read:

* ``client.ops`` and ``client.ops.az<N>`` — every finished client op, fed by
  the drivers that time it (``ClosedLoopDriver``, ``AggregatedArrivalEngine``);
* ``<component>.<host>`` — each NN / MDS handler completion, fed by the
  servers of a traced run;
* ``component.retired.<series>`` — a graceful decommission, which exempts
  that server's liveness SLO.

The chaos availability timeline is :meth:`TimeSeriesHub.availability`, a
view over ``client.ops``; shards fold with :meth:`TimeSeriesHub.merge`.

The sampler is **dispatch-driven**, not a kernel process.  A periodic DES
sampler process would consume sequence numbers and heap slots, so a
telemetry-on run could never replay a telemetry-off schedule.  Instead,
every recording site passes the current simulated time into the hub; when
that time has crossed one or more window boundaries the hub *rolls*: it
seals every completed window and notifies listeners (the SLO engine).
Since a record at time ``t`` always lands in window ``t // INTERVAL_MS``,
sealing a window at the first recording after its boundary yields exactly
the aggregates a boundary-time sampler would have seen.

The hub only mutates plain Python state: it never schedules kernel events,
consumes sequence numbers, or draws from an RNG.
``tests/obs/test_sampler_neutrality.py`` pins dispatch-hash equality
sampler-on vs sampler-off across all nine setups.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from .metrics import DEFAULT_LATENCY_BUCKETS_MS, Histogram

__all__ = ["OpWindow", "TimeSeriesHub"]


class OpWindow(Histogram):
    """One window of an op series: the latency histogram plus its failed ops."""

    __slots__ = ("errors",)

    def __init__(self, name: str = "op",
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
                 tags: Optional[dict] = None):
        super().__init__(name, buckets, tags)
        self.errors = 0

    def merge(self, other: "OpWindow") -> "OpWindow":
        merged = super().merge(other)
        merged.errors = self.errors + other.errors
        return merged


class TimeSeriesHub:
    """One run's sealed windows per series, plus the roll/seal logic.

    ``series`` maps a series name to ``{window index: value}`` in increasing
    index order, holding only windows in which something was recorded; the
    value is an :class:`OpWindow` for an op series and a float for a
    counter.  Listeners registered with :meth:`subscribe` see every sealed
    window in order — including empty ones, which is how the SLO engine
    notices silence.
    """

    INTERVAL_MS = 10.0  # the SLO engine's window
    VIEW_MS = 20.0  # one row of the availability timeline
    #: Safety valve: one roll never seals more than this many windows
    #: (a long idle drain would otherwise spin sealing empty windows).
    MAX_SEAL_PER_ROLL = 4096

    def __init__(self):
        self.series: Dict[str, Dict[int, object]] = {}
        self._live: Dict[str, object] = {}  # the open window's values
        self._listeners: List[Callable] = []
        # Index of the open window; simulated time starts at 0 in every harness.
        self._cursor = 0

    def subscribe(self, listener: Callable) -> None:
        """``listener(window_index, start_ms, end_ms, sealed)`` per seal, where
        ``sealed`` maps series name -> that window's value (missing ⇒ nothing
        recorded)."""
        self._listeners.append(listener)

    # -- recording ---------------------------------------------------------
    def record_op(self, az, latency_ms: float, ok: bool, now: float) -> None:
        """One finished client operation: aggregate + per-AZ op series."""
        self.roll(now)
        self._observe("client.ops", latency_ms, ok)
        if az:  # AZ ids are 1-based; 0 is ANY_AZ (no placement)
            self._observe(f"client.ops.az{az}", latency_ms, ok)

    def component_sample(self, component: str, host: str, duration_ms: float,
                         ok: bool, now: float) -> None:
        """One server-side handler completion (NN / MDS), per host."""
        self.roll(now)
        self._observe(f"{component}.{host}", duration_ms, ok)

    def inc(self, name: str, now: float, amount: float = 1.0) -> None:
        """Windowed counter: per-window sum of ``amount``."""
        self.roll(now)
        self._live[name] = self._live.get(name, 0.0) + amount

    def _observe(self, name: str, latency_ms: float, ok: bool) -> None:
        window = self._live.get(name)
        if window is None:
            window = self._live[name] = OpWindow()
        window.observe(latency_ms)
        if not ok:
            window.errors += 1

    # -- rolling -----------------------------------------------------------
    def roll(self, now: float) -> None:
        """Seal every window fully in the past of ``now``."""
        target = int(now // self.INTERVAL_MS)
        if target <= self._cursor:
            return
        self._seal(self._cursor)
        # Bound a pathological jump (sealing is O(windows crossed)); what
        # it skips is empty.
        for index in range(max(self._cursor + 1, target - self.MAX_SEAL_PER_ROLL + 1),
                           target):
            self._seal(index)
        self._cursor = target

    def finalize(self, now: float) -> None:
        """Seal up to and including the window containing ``now``."""
        self.roll(now)
        self._seal(self._cursor)
        self._cursor += 1

    def _seal(self, index: int) -> None:
        sealed, self._live = self._live, {}
        for name, value in sealed.items():
            self.series.setdefault(name, {})[index] = value
        start_ms = index * self.INTERVAL_MS
        for listener in self._listeners:
            listener(index, start_ms, start_ms + self.INTERVAL_MS, sealed)

    # -- merge (the shard contract) ----------------------------------------
    def merge(self, other: "TimeSeriesHub") -> "TimeSeriesHub":
        """Return a new hub folding two shards' sealed windows together.

        Commutative and associative: op windows merge, counter windows add.
        Live (unsealed) state does not merge — call :meth:`finalize` on both
        sides first.
        """
        merged = TimeSeriesHub()
        for name in sorted(self.series.keys() | other.series.keys()):
            rows = dict(self.series.get(name, {}))
            for index, value in other.series.get(name, {}).items():
                mine = rows.get(index)
                if mine is None:
                    rows[index] = value
                elif isinstance(mine, OpWindow):
                    rows[index] = mine.merge(value)
                else:
                    rows[index] = mine + value
            merged.series[name] = dict(sorted(rows.items()))
        return merged

    # -- views -------------------------------------------------------------
    def availability(self) -> List[dict]:
        """``client.ops`` per ``VIEW_MS``, dense from the first row with a
        completion to the last: ``{"t_ms", "ok", "failed", "availability"}``.

        ``availability`` is ``None`` for a row with no completions at all
        (total outage looks like silence under a closed-loop driver, not
        failures, so an empty row is reported as unavailable-or-idle).
        """
        per_row = int(self.VIEW_MS // self.INTERVAL_MS)
        counts: Dict[int, List[int]] = {}
        for index, window in self.series.get("client.ops", {}).items():
            row = counts.setdefault(index // per_row, [0, 0])
            row[0] += window.count - window.errors
            row[1] += window.errors
        if not counts:
            return []
        rows = []
        for index in range(min(counts), max(counts) + 1):
            ok, failed = counts.get(index, (0, 0))
            total = ok + failed
            rows.append({"t_ms": index * self.VIEW_MS, "ok": ok, "failed": failed,
                         "availability": ok / total if total else None})
        return rows
