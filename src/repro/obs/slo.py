"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SloSpec` declares an objective over one windowed op series
(availability, p99-style latency, or throughput floor) together with an
error budget.  The :class:`SloEngine` subscribes to a
:class:`~repro.obs.timeseries.TimeSeriesHub` and evaluates every sealed
window with the SRE multi-window burn-rate rule: an alert fires only
when *both* a short (fast) and a long (slow) trailing window burn the
error budget faster than ``burn_threshold``, and resolves once the fast
burn drops under ``resolve_threshold``.  The fast window keeps detection
latency low; the slow window suppresses one-window blips, which is what
keeps fault-free baseline runs alert-free.

Budgets are burned ops-weighted: over a span, ``burn = (Σ bad / Σ ops) /
error_budget``.  "Bad" per kind:

* ``availability`` — the op failed.
* ``latency`` — the op took longer than the calibrated threshold
  (baseline p99 × ``latency_mult``, floored at ``latency_floor_ms``); a
  gray-degraded run burns this budget long before ops outright fail.
* ``throughput`` — the *window* carried fewer ops than
  ``drop_fraction`` × the calibrated baseline ops/window (weighted as
  one bad unit per window).  This is the detector for total silence: a
  closed-loop driver whose every request is stuck produces no errors at
  all, only missing completions (see ``TimeSeriesHub.availability``).

Calibration is in-band and per-run: the first ``calibration_windows``
traffic-carrying windows (all pre-fault in every chaos scenario — the
earliest fault fires at t=60ms) establish the baseline p99 and
ops/window.  No evaluation happens until calibration completes, so the
engine self-adapts to each of the nine setups' very different latency
profiles instead of hard-coding per-setup thresholds.

Evaluation is *relative*: decisions depend only on the sequence of
window aggregates, never on absolute window indices or wall-clock
anchors — shifting the whole timeline by a constant number of windows
shifts alerts by exactly that constant (pinned by a hypothesis test).

Alerts are observability outputs, not simulation inputs: firing an
alert records spans/counters but never schedules events, so the engine
inherits the hub's schedule-neutrality.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["SloSpec", "Alert", "SloEngine", "default_slos",
           "per_az_slos", "component_liveness_slos"]

_KINDS = ("availability", "latency", "latency_mean", "throughput")


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over a windowed op series.

    Kinds and their "bad/total" budget units:

    * ``availability`` — bad = failed ops, total = ops.
    * ``latency`` — bad = ops slower than the calibrated tail threshold
      (plus failed ops), total = ops.  Catches coarse gray degradation.
    * ``latency_mean`` — bad = excess latency mass above the calibrated
      baseline mean (``max(0, total_ms − baseline_mean·ops)``), total =
      expected mass (``baseline_mean·ops``).  Catches *subtle* gray
      degradation that shifts the whole distribution without growing the
      tail past the p99 threshold (e.g. +5ms on one inter-AZ link).
    * ``throughput`` — bad = 1 per window carrying fewer ops than
      ``drop_fraction`` × baseline, total = 1 per window.  Catches total
      silence, which a closed-loop driver reports as *no* completions
      rather than failed ones.
    """

    name: str
    kind: str                      # availability | latency | latency_mean | throughput
    series: str = "client.ops"
    error_budget: float = 0.01     # allowed bad fraction
    fast_windows: int = 3          # detection window (short)
    slow_windows: int = 12         # confirmation window (long)
    burn_threshold: float = 2.0    # fire when the fast burn exceeds this …
    slow_burn_threshold: Optional[float] = None  # … and the slow burn this
    resolve_threshold: float = 1.0 # resolve when fast burn drops below
    min_ops: int = 4               # spans with fewer ops are inconclusive
    calibration_windows: int = 4   # traffic windows used for baselines
    latency_mult: float = 3.0      # threshold = baseline p99 × mult …
    latency_floor_ms: float = 5.0  # … but never below this
    drop_fraction: float = 0.25    # throughput floor vs baseline ops/window

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not (0.0 < self.error_budget <= 1.0):
            raise ValueError("error_budget must be in (0, 1]")
        if self.fast_windows <= 0 or self.slow_windows < self.fast_windows:
            raise ValueError("need 0 < fast_windows <= slow_windows")

    @property
    def slow_threshold(self) -> float:
        return (self.slow_burn_threshold if self.slow_burn_threshold is not None
                else self.burn_threshold)


@dataclass
class Alert:
    """One fired (and possibly resolved) burn-rate alert."""

    slo: str
    kind: str
    series: str
    fired_index: int
    fired_ms: float
    resolved_index: Optional[int] = None
    resolved_ms: Optional[float] = None
    peak_burn: float = 0.0
    windows: int = 0               # sealed windows spent in the alert
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "slo": self.slo,
            "kind": self.kind,
            "series": self.series,
            "fired_ms": self.fired_ms,
            "resolved_ms": self.resolved_ms,
            "peak_burn": round(self.peak_burn, 3),
            "windows": self.windows,
            "detail": self.detail,
        }


class _SpecState:
    """Per-spec trailing-window state."""

    __slots__ = ("spec", "ring", "calibrating", "calib_count", "calib_ops",
                 "calib_total_ms", "calib_p99", "baseline_ops", "baseline_mean_ms",
                 "latency_threshold_ms", "active", "retired")

    def __init__(self, spec: SloSpec):
        self.spec = spec
        # ring rows: (bad_units, total_units, ops) per sealed window.
        self.ring: deque = deque(maxlen=spec.slow_windows)
        self.calibrating = True
        self.calib_count = 0
        self.calib_ops = 0
        self.calib_p99 = 0.0       # max of per-window p99s seen in calibration
        self.calib_total_ms = 0.0
        self.baseline_ops = 0.0
        self.baseline_mean_ms = 0.0
        self.latency_threshold_ms = spec.latency_floor_ms
        self.active: Optional[Alert] = None
        self.retired = False

    def burn(self, span: int) -> float:
        rows = list(self.ring)[-span:]
        if sum(r[2] for r in rows) < self.spec.min_ops:
            return 0.0
        total = sum(r[1] for r in rows)
        if total <= 0:
            return 0.0
        bad = sum(r[0] for r in rows)
        return (bad / total) / self.spec.error_budget


class SloEngine:
    """Evaluates SLO specs against a hub's sealed windows."""

    def __init__(self, specs: List[SloSpec], hub, obs=None,
                 load_window_ms: Optional[float] = None):
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate SLO names")
        self.specs = list(specs)
        self.hub = hub
        self.obs = obs
        #: Windows ending after the horizon are not evaluated: offered load
        #: stops at the scenario's load_ms, and the quiet drain phase would
        #: otherwise read as a throughput outage.  ``load_window_ms``
        #: anchors it to the first window that carries monitored traffic
        #: (scenario harnesses don't know the absolute load start up front
        #: — election and seeding run first).
        self.horizon_ms: Optional[float] = None
        self.load_window_ms = load_window_ms
        self.alerts: List[Alert] = []
        self._states: Dict[str, _SpecState] = {s.name: _SpecState(s) for s in specs}
        hub.subscribe(self._on_window)

    # -- window evaluation -------------------------------------------------
    def _on_window(self, index: int, start_ms: float, end_ms: float,
                   sealed: dict) -> None:
        if self.horizon_ms is None and self.load_window_ms is not None:
            if any(s.series in sealed for s in self.specs):
                self.horizon_ms = start_ms + self.load_window_ms
        if self.horizon_ms is not None and end_ms > self.horizon_ms:
            self._resolve_all(index, end_ms, reason="horizon")
            return
        self._apply_retirements(index, end_ms, sealed)
        for state in self._states.values():
            if state.retired:
                continue
            self._eval(state, index, start_ms, end_ms, sealed.get(state.spec.series))

    def _apply_retirements(self, index: int, end_ms: float,
                           sealed: dict) -> None:
        """Exempt legitimately retired components from their floors.

        A graceful decommission emits ``component.retired.<series>`` (a
        windowed counter) at *decision* time — before the drained server
        goes silent — so its liveness floor stops evaluating instead of
        burning on silence that an operator ordered.  Preemptions emit no
        such signal: a spot kill is a fault the monitor must still catch.
        Retirement is permanent for the run (the handle is never reused).
        """
        prefix = "component.retired."
        retired_series = {name[len(prefix):]
                          for name in sealed if name.startswith(prefix)}
        if not retired_series:
            return
        for state in self._states.values():
            if state.retired or state.spec.series not in retired_series:
                continue
            state.retired = True
            alert = state.active
            if alert is not None:
                alert.resolved_index = index
                alert.resolved_ms = end_ms
                alert.detail += " (resolved:retired)"
                state.active = None
                self._emit("slo.alert.resolve", alert, end_ms)
            if self.obs is not None:
                self.obs.registry.counter("slo.spec.retired").inc()

    def _eval(self, state: _SpecState, index: int, start_ms: float,
              end_ms: float, window) -> None:
        spec = state.spec
        count = window.count if window is not None else 0

        if state.calibrating:
            if count >= spec.min_ops:
                state.calib_count += 1
                state.calib_ops += count
                state.calib_total_ms += window.total
                p99 = window.quantile(0.99)
                if p99 > state.calib_p99:
                    state.calib_p99 = p99
                if state.calib_count >= spec.calibration_windows:
                    state.baseline_ops = state.calib_ops / state.calib_count
                    state.baseline_mean_ms = state.calib_total_ms / state.calib_ops
                    state.latency_threshold_ms = max(
                        spec.latency_floor_ms, state.calib_p99 * spec.latency_mult)
                    state.calibrating = False
            return

        # Bad/total/ops units for this window, per kind.
        if spec.kind == "availability":
            bad, total, ops = (window.errors, count, count) if window is not None else (0, 0, 0)
        elif spec.kind == "latency":
            if window is not None:
                slow_ops = self._count_above(window, state.latency_threshold_ms)
                # Failed ops burn the latency budget too: a timed-out op is
                # not "fast", it is missing.
                bad, total, ops = slow_ops + window.errors, count, count
            else:
                bad, total, ops = 0, 0, 0
        elif spec.kind == "latency_mean":
            if window is not None and count:
                expected = state.baseline_mean_ms * count
                bad, total, ops = max(0.0, window.total - expected), expected, count
            else:
                bad, total, ops = 0.0, 0.0, 0
        else:  # throughput
            floor = spec.drop_fraction * state.baseline_ops
            bad, total, ops = (1, 1, count) if count < floor else (0, 1, count)
            ops = max(ops, 1)  # an empty window is itself evidence here
        state.ring.append((bad, total, ops))

        fast = state.burn(spec.fast_windows)
        slow = state.burn(spec.slow_windows)

        if state.active is None:
            if fast >= spec.burn_threshold and slow >= spec.slow_threshold:
                alert = Alert(
                    slo=spec.name, kind=spec.kind, series=spec.series,
                    fired_index=index, fired_ms=end_ms,
                    peak_burn=max(fast, slow), windows=1,
                    detail=(f"fast={fast:.1f}x slow={slow:.1f}x "
                            f"budget={spec.error_budget}"),
                )
                state.active = alert
                self.alerts.append(alert)
                self._emit("slo.alert.fire", alert, end_ms)
        else:
            alert = state.active
            alert.windows += 1
            if fast > alert.peak_burn:
                alert.peak_burn = fast
            if fast < spec.resolve_threshold:
                alert.resolved_index = index
                alert.resolved_ms = end_ms
                state.active = None
                self._emit("slo.alert.resolve", alert, end_ms)

    def _count_above(self, window, threshold_ms: float) -> int:
        """Ops in the window with latency above ``threshold_ms`` (bucketed)."""
        buckets = window.buckets
        n = 0
        for i, c in enumerate(window.bucket_counts):
            if not c:
                continue
            lower = buckets[i - 1] if i > 0 else 0.0
            if lower >= threshold_ms:
                n += c
        return n

    # -- lifecycle ---------------------------------------------------------
    def finalize(self, now: float) -> None:
        """Resolve any still-active alerts at end of run."""
        index = int(now // self.hub.INTERVAL_MS)
        self._resolve_all(index, now, reason="finalize")

    def _resolve_all(self, index: int, now_ms: float, reason: str) -> None:
        for state in self._states.values():
            alert = state.active
            if alert is not None:
                alert.resolved_index = index
                alert.resolved_ms = now_ms
                alert.detail += f" (resolved:{reason})"
                state.active = None
                self._emit("slo.alert.resolve", alert, now_ms)

    def _emit(self, event: str, alert: Alert, now_ms: float) -> None:
        obs = self.obs
        if obs is None:
            return
        obs.registry.counter(event).inc()
        obs.tracer.event(event, tags={
            "slo": alert.slo, "kind": alert.kind, "series": alert.series,
            "burn": round(alert.peak_burn, 2), "t_ms": now_ms,
        })

    # -- views -------------------------------------------------------------
    def thresholds(self) -> dict:
        """Calibrated per-spec baselines (for the monitor artifact)."""
        out = {}
        for name, state in sorted(self._states.items()):
            out[name] = {
                "calibrated": not state.calibrating,
                "baseline_ops_per_window": round(state.baseline_ops, 3),
                "baseline_mean_ms": round(state.baseline_mean_ms, 4),
                "latency_threshold_ms": round(state.latency_threshold_ms, 3),
            }
        return out

    def alert_dicts(self) -> List[dict]:
        return [a.as_dict() for a in self.alerts]


def default_slos() -> List[SloSpec]:
    """The monitor's stock objectives over the aggregate client series.

    Tuned against the chaos matrix (see ``repro.obs.detect``): every gray
    and fail-stop scenario trips at least one of these on every setup,
    while fault-free baseline runs stay silent on all nine setups.
    """
    return [
        SloSpec(name="availability", kind="availability",
                error_budget=0.02, burn_threshold=2.0, resolve_threshold=1.0),
        # A true p99 objective: the threshold is the calibrated baseline
        # p99 bucket itself (mult 1.0), and "bad" is any op strictly above
        # that bucket.  By construction ≤1% of baseline ops sit there, so
        # budget 0.01 with burn 2.0 fires when >2% of ops cross it — a
        # whole-distribution shift (degraded link: +5 ms moves ~4% of ops
        # one bucket up) that a mean anchored on cold-cache calibration
        # windows can miss.
        SloSpec(name="latency-p99", kind="latency",
                error_budget=0.01, burn_threshold=2.0, resolve_threshold=1.0,
                latency_mult=1.0, latency_floor_ms=5.0),
        # error_budget 0.25 on excess mean mass ⇒ fast fires at ≥1.5× the
        # baseline mean sustained over the fast span, confirmed by ≥1.25×
        # over the slow span (burn 2.0 / 1.0).  Baseline window means sit
        # within ~1.25× of calibration on every setup; subtle link
        # degradation (+5ms) roughly doubles them.
        SloSpec(name="latency-mean", kind="latency_mean",
                error_budget=0.25, burn_threshold=2.0, slow_burn_threshold=1.0,
                resolve_threshold=1.0),
        # budget 0.25 on bad-window fraction ⇒ fire on 3/3 recent windows
        # under half the baseline op rate, confirmed by ≥3/6 — a sharp
        # collapse detector (partition, AZ outage) that one quiet window
        # cannot trip.
        SloSpec(name="throughput-floor", kind="throughput",
                error_budget=0.25, burn_threshold=2.0, slow_burn_threshold=2.0,
                resolve_threshold=1.0, slow_windows=6,
                drop_fraction=0.5, min_ops=2),
    ]


def _floor_spec(name: str, series: str, drop_fraction: float = 0.5) -> SloSpec:
    return SloSpec(name=name, kind="throughput", series=series,
                   error_budget=0.25, burn_threshold=2.0,
                   slow_burn_threshold=2.0, resolve_threshold=1.0,
                   slow_windows=6, drop_fraction=drop_fraction, min_ops=2)


def per_az_slos(azs: Sequence[int]) -> List[SloSpec]:
    """Throughput floors on each AZ's client series.

    An AZ outage under a closed-loop driver silences that AZ's clients
    without erroring anyone else's — invisible in the aggregate when the
    surviving AZs absorb the head-room, loud in the per-AZ rate.
    Single-AZ setups are covered by the aggregate floor already.
    """
    if len(azs) <= 1:
        return []
    return [_floor_spec(f"throughput-az{az}", f"client.ops.az{az}")
            for az in azs]


def component_liveness_slos(series_names: Sequence[str]) -> List[SloSpec]:
    """Throughput floors on per-component handle series (one per NN/MDS).

    A crashed or isolated server stops *serving* while clients transparently
    fail over around it — e.g. a CephFS client keeps all its ops local to
    the kernel cache and the surviving ranks, so nothing client-visible
    moves.  Components that carried no calibration traffic (standbys)
    never calibrate and therefore never alert.

    The floor is 10% of the calibrated rate, not 50%: per-component
    request rates swing organically (caches warm, subtrees migrate), so
    liveness means *near-silence*, not a rate dip.
    """
    return [_floor_spec(f"liveness-{series}", series, drop_fraction=0.1)
            for series in series_names]
