"""Detector scoring: monitor alerts vs injected-fault ground truth.

The chaos engine knows exactly which faults it injected and when
(:class:`~repro.chaos.schedule.FaultSchedule` + the injector's executed
trace).  This harness replays a chaos scenario with the full monitoring
stack attached — time-series hub + SLO burn-rate engine — and scores the
alerts the monitor raised against that ground truth:

* **recall** — fraction of injected fault windows with at least one
  alert fired inside them (plus a short grace tail),
* **precision** — fraction of alerts that land inside some fault window,
* **detection latency** — alert fire time minus fault onset, per
  detected window,
* **false-alert windows** — sealed windows spent inside unmatched
  alerts (the baseline fault-free run must score zero).

Because it imports :mod:`repro.chaos` (which imports the experiment
setups, which import :mod:`repro.obs`), this module is deliberately NOT
re-exported from the ``repro.obs`` package — import it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..chaos.scenarios import SCENARIOS, Scenario, run_scenario
from ..chaos.schedule import FaultSchedule
from ..metrics.report import Table
from . import ObsContext
from .breakdown import phase_breakdown_json
from .slo import (SloEngine, SloSpec, component_liveness_slos, default_slos,
                  per_az_slos)
from .timeseries import TimeSeriesHub

__all__ = [
    "BASELINE_SCENARIO",
    "FaultWindow",
    "DetectionScore",
    "MonitorResult",
    "fault_windows",
    "run_monitor",
    "monitor_table",
]

# How long after a fault's heal an alert may still fire and count as a
# detection rather than a false positive: burn-rate evaluation trails
# reality by up to the slow confirmation span, and recovery effects
# (failover, journal replay) legitimately outlive the heal instant.
DEFAULT_GRACE_MS = 60.0

# Fault-free control run: same workload shape as the chaos scenarios,
# empty schedule.  Deliberately NOT in SCENARIOS (tests iterate that dict
# as the fault matrix); run_scenario accepts the object directly.
BASELINE_SCENARIO = Scenario(
    "baseline",
    "fault-free control run: the monitor must stay silent",
    lambda harness: FaultSchedule(),
    drain_ms=300.0,
    # No block seeding: there are no faults for the block layer to ride
    # out, and single-AZ setups lack the datanodes for 3-way placement.
    seed_large_files=0,
)

# Fault actions that open a ground-truth window, mapped to the actions
# that close it.  recover_all closes everything.  A spot preemption IS a
# fault the monitor must catch (unlike a graceful decommission, which
# emits a retirement signal and is exempt from liveness floors); its
# window stays open until the node restarts or the run ends.
_WINDOW_STARTS = {
    "crash_node": ("recover_node", "recover_all"),
    "az_outage": ("az_heal", "recover_all"),
    "partition": ("heal", "recover_all"),
    "degrade_link": ("restore_links", "recover_all"),
    "preempt_namenode": ("recover_node", "recover_all"),
}


@dataclass
class FaultWindow:
    """One injected-fault interval in absolute simulated time."""

    fault_class: str          # the opening action, e.g. "degrade_link"
    start_ms: float
    end_ms: float
    detail: str = ""
    detected: bool = False
    detection_latency_ms: Optional[float] = None
    detected_by: List[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "fault_class": self.fault_class,
            "start_ms": round(self.start_ms, 3),
            "end_ms": round(self.end_ms, 3),
            "detail": self.detail,
            "detected": self.detected,
            "detection_latency_ms": (
                round(self.detection_latency_ms, 3)
                if self.detection_latency_ms is not None else None
            ),
            "detected_by": list(self.detected_by),
        }


def fault_windows(schedule_dicts: Sequence[dict], fault_trace: Sequence,
                  run_end_ms: float,
                  merge_gap_ms: float = 0.0) -> List[FaultWindow]:
    """Derive absolute ground-truth fault windows from a chaos run.

    Schedule times are relative to the injector's start; the executed
    trace records absolute completion times.  The first event of every
    schedule completes within the same instant it fires, so the offset
    between the first trace entry and the first scheduled time recovers
    the injector origin.  Same-class windows that overlap or sit within
    ``merge_gap_ms`` of each other merge into one episode (slow-az
    degrades several links at the same instant; rolling restarts crash
    one namenode after another — one fault episode, not N).
    """
    if not schedule_dicts or not fault_trace:
        return []
    origin = fault_trace[0][0] - float(schedule_dicts[0]["at_ms"])
    open_windows: List[tuple] = []   # (class, closers, key, start_abs, detail)
    closed: List[FaultWindow] = []

    def _key(event: dict) -> str:
        # What a closer must match: node for crash/recover, az for
        # outage/heal; link and partition closers are global
        # (restore_links/heal close every window of their class).
        if event.get("node") is not None:
            return f"node:{event['node']}"
        if event.get("az") is not None:
            return f"az:{event['az']}"
        return "*"

    for event in schedule_dicts:
        action = event["action"]
        at_abs = origin + float(event["at_ms"])
        if action in _WINDOW_STARTS:
            open_windows.append((
                action, _WINDOW_STARTS[action], _key(event), at_abs,
                _describe(event),
            ))
            continue
        # A closing action: close every open window it matches.
        still_open = []
        for fault_class, closers, key, start_abs, detail in open_windows:
            matches = action in closers and (
                action in ("recover_all", "heal", "restore_links")
                or _key(event) == key
            )
            if matches:
                closed.append(FaultWindow(fault_class, start_abs, at_abs, detail))
            else:
                still_open.append((fault_class, closers, key, start_abs, detail))
        open_windows = still_open

    for fault_class, _closers, _key_, start_abs, detail in open_windows:
        closed.append(FaultWindow(fault_class, start_abs, run_end_ms, detail))

    # Merge overlapping/near-adjacent same-class windows into one episode.
    merged: List[FaultWindow] = []
    for window in sorted(closed, key=lambda w: (w.fault_class, w.start_ms)):
        last = merged[-1] if merged else None
        if (last is not None and last.fault_class == window.fault_class
                and window.start_ms <= last.end_ms + merge_gap_ms):
            last.end_ms = max(last.end_ms, window.end_ms)
            if window.detail and window.detail not in last.detail:
                last.detail += f"; {window.detail}"
        else:
            merged.append(window)
    merged.sort(key=lambda w: (w.start_ms, w.fault_class))
    return merged


def _describe(event: dict) -> str:
    parts = [event["action"]]
    for key in ("node", "az", "az_pair", "extra_ms"):
        if event.get(key) is not None:
            parts.append(f"{key}={event[key]}")
    return " ".join(parts)


@dataclass
class DetectionScore:
    """Alerts vs ground truth for one scenario run."""

    windows: List[FaultWindow]
    matched_alerts: int
    total_alerts: int
    false_alert_windows: int     # sealed windows inside unmatched alerts

    @property
    def recall(self) -> float:
        if not self.windows:
            return 1.0
        return sum(1 for w in self.windows if w.detected) / len(self.windows)

    @property
    def precision(self) -> float:
        if not self.total_alerts:
            return 1.0
        return self.matched_alerts / self.total_alerts

    @property
    def mean_detection_latency_ms(self) -> Optional[float]:
        vals = [w.detection_latency_ms for w in self.windows
                if w.detection_latency_ms is not None]
        if not vals:
            return None
        return sum(vals) / len(vals)

    def as_dict(self) -> dict:
        latency = self.mean_detection_latency_ms
        return {
            "recall": round(self.recall, 4),
            "precision": round(self.precision, 4),
            "mean_detection_latency_ms": (
                round(latency, 3) if latency is not None else None
            ),
            "matched_alerts": self.matched_alerts,
            "total_alerts": self.total_alerts,
            "false_alert_windows": self.false_alert_windows,
            "fault_windows": [w.as_dict() for w in self.windows],
        }


def _damp_flaps(alerts: List, gap_ms: float) -> List:
    """Collapse re-fires of the same SLO into one logical incident.

    An objective that resolves and fires again within ``gap_ms`` is
    flapping around its threshold, not reporting a new incident — the
    standard alert-dedup treatment.  The merged incident keeps the first
    ``fired_ms`` (detection latency is to first notice) and accumulates
    the alert-window cost.
    """
    by_slo: Dict[str, List] = {}
    for alert in sorted(alerts, key=lambda a: a.fired_ms):
        group = by_slo.setdefault(alert.slo, [])
        prev = group[-1] if group else None
        if (prev is not None and prev.resolved_ms is not None
                and alert.fired_ms - prev.resolved_ms <= gap_ms):
            prev.resolved_index = alert.resolved_index
            prev.resolved_ms = alert.resolved_ms
            prev.peak_burn = max(prev.peak_burn, alert.peak_burn)
            prev.windows += alert.windows
            continue
        group.append(replace(alert))
    merged = [a for group in by_slo.values() for a in group]
    merged.sort(key=lambda a: a.fired_ms)
    return merged


def score_alerts(windows: List[FaultWindow], alerts: List,
                 grace_ms: float = DEFAULT_GRACE_MS,
                 flap_gap_ms: Optional[float] = None) -> DetectionScore:
    """Match fired alerts to fault windows; fill in detection fields.

    Alerts are flap-damped first (re-fires of one SLO within
    ``flap_gap_ms``, default 2 × ``grace_ms``, merge into one incident),
    then each incident must have fired inside some ground-truth window
    (+ ``grace_ms``) to count as matched.
    """
    alerts = _damp_flaps(alerts, 2 * grace_ms if flap_gap_ms is None
                         else flap_gap_ms)
    matched = 0
    false_windows = 0
    for alert in alerts:
        hit = False
        for window in windows:
            if window.start_ms <= alert.fired_ms <= window.end_ms + grace_ms:
                hit = True
                if not window.detected or alert.fired_ms - window.start_ms < (
                        window.detection_latency_ms or float("inf")):
                    window.detection_latency_ms = alert.fired_ms - window.start_ms
                window.detected = True
                if alert.slo not in window.detected_by:
                    window.detected_by.append(alert.slo)
        if hit:
            matched += 1
        else:
            false_windows += alert.windows
    return DetectionScore(
        windows=windows,
        matched_alerts=matched,
        total_alerts=len(alerts),
        false_alert_windows=false_windows,
    )


@dataclass
class MonitorResult:
    """Everything one monitored chaos run produced."""

    scenario: str
    setup: str
    seed: int
    score: DetectionScore
    alerts: List[dict]
    thresholds: dict
    timeline: List[dict]          # windowed client.ops rows (t_ms, count, …)
    completed: int
    failed: int
    dispatch_hash: str
    all_green: bool               # invariant verdicts from the chaos run
    breakdown: dict = field(default_factory=dict)  # phase_breakdown_json rows
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Green = invariants hold, every fault detected, no false alerts."""
        return (self.all_green and self.score.recall == 1.0
                and self.score.false_alert_windows == 0)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "setup": self.setup,
            "seed": self.seed,
            "ok": self.ok,
            "score": self.score.as_dict(),
            "alerts": self.alerts,
            "thresholds": self.thresholds,
            "interval_ms": TimeSeriesHub.INTERVAL_MS,
            "timeline": self.timeline,
            "completed": self.completed,
            "failed": self.failed,
            "dispatch_hash": self.dispatch_hash,
            "invariants_green": self.all_green,
            "breakdown": self.breakdown,
        }

    def render(self) -> str:
        """Operator-style report: alert timeline + detection scores."""
        score = self.score
        lines = [
            f"scenario:  {self.scenario}",
            f"setup:     {self.setup} (seed {self.seed})",
            f"ops:       {self.completed} completed, {self.failed} failed",
            f"monitor:   {'GREEN' if self.ok else 'RED'}  "
            f"recall={score.recall:.2f} precision={score.precision:.2f} "
            f"false_alert_windows={score.false_alert_windows}",
            "",
            "fault windows (ground truth):",
        ]
        if not score.windows:
            lines.append("  (none — fault-free run)")
        for window in score.windows:
            status = "DETECTED" if window.detected else "MISSED"
            latency = (f" +{window.detection_latency_ms:.0f}ms"
                       if window.detection_latency_ms is not None else "")
            by = f" by {','.join(window.detected_by)}" if window.detected_by else ""
            lines.append(
                f"  [{window.start_ms:7.1f} – {window.end_ms:7.1f}ms] "
                f"{window.fault_class:<14} {status}{latency}{by}"
            )
        lines.append("")
        lines.append("alerts:")
        if not self.alerts:
            lines.append("  (none fired)")
        for alert in self.alerts:
            resolved = (f"{alert['resolved_ms']:.1f}"
                        if alert["resolved_ms"] is not None else "open")
            lines.append(
                f"  [{alert['fired_ms']:7.1f} – {resolved:>7}ms] "
                f"{alert['slo']:<18} burn {alert['peak_burn']:>6.1f}x  {alert['detail']}"
            )
        lines.append("")
        lines.append("op-rate timeline (client.ops):")
        lines.append("  t(ms)     ops  err   p99(ms)")
        for row in self.timeline:
            bar = "#" * min(40, row["count"])
            lines.append(
                f"  {row['t_ms']:7.0f} {row['count']:5d} {row['errors']:4d} "
                f"{row['p99_ms']:8.2f}  {bar}"
            )
        return "\n".join(lines)


def monitor_slos(setup: str, num_servers: int = 3) -> List[SloSpec]:
    """The full detector bank for one setup.

    The aggregate :func:`~repro.obs.slo.default_slos` plus auto-derived
    per-AZ client floors and per-server (NN/MDS) liveness floors — the
    latter two catch faults a fan-out or failover path hides from the
    aggregate client series.  Liveness floors cover the *initial* pool;
    a gracefully decommissioned server retires its floor in-band (see
    :meth:`SloEngine._apply_retirements`), while a preempted server's
    floor keeps burning — that silence is the detection signal.
    """
    from ..experiments.setups import SETUPS, resolve_setup
    spec = SETUPS[resolve_setup(setup)]
    prefix = "mds.handle.mds" if spec.kind == "cephfs" else "nn.handle.nn"
    components = [f"{prefix}{i}" for i in range(1, num_servers + 1)]
    return (default_slos() + per_az_slos(spec.azs)
            + component_liveness_slos(components))


def run_monitor(
    scenario: "str | Scenario",
    setup: str = "HopsFS-CL (3,3)",
    num_servers: int = 3,
    seed: int = 99,
    specs: Optional[List[SloSpec]] = None,
    clients: Optional[int] = None,
    load_ms: Optional[float] = None,
    grace_ms: float = DEFAULT_GRACE_MS,
    obs: Optional[ObsContext] = None,
) -> MonitorResult:
    """Run one chaos scenario with the monitor attached and score it.

    ``scenario`` may be any name in ``SCENARIOS``, ``"baseline"`` for the
    fault-free control run, or a :class:`Scenario` object.
    """
    if isinstance(scenario, str):
        if scenario == BASELINE_SCENARIO.name:
            scenario = BASELINE_SCENARIO
        elif scenario in SCENARIOS:
            scenario = SCENARIOS[scenario]
        else:
            raise ValueError(
                f"unknown scenario {scenario!r} "
                f"(have: baseline, {', '.join(sorted(SCENARIOS))})"
            )
    run_ms = load_ms if load_ms is not None else scenario.load_ms

    if obs is None:
        obs = ObsContext()
    hub = TimeSeriesHub()
    obs.timeseries = hub
    if specs is None:
        specs = monitor_slos(setup, num_servers)
    engine = SloEngine(specs, hub, obs=obs, load_window_ms=run_ms)
    result = run_scenario(
        scenario, setup, num_servers=num_servers, seed=seed, obs=obs,
        clients=clients, load_ms=load_ms,
    )
    env = result.extra["harness"].env
    engine.finalize(env.now)

    windows = fault_windows(result.schedule, result.fault_trace, env.now,
                            merge_gap_ms=grace_ms)
    score = score_alerts(windows, engine.alerts, grace_ms=grace_ms)

    timeline = [
        {"t_ms": index * hub.INTERVAL_MS, "count": window.count, "errors": window.errors,
         "p99_ms": window.quantile(0.99),
         "availability": (window.count - window.errors) / window.count}
        for index, window in hub.series.get("client.ops", {}).items()
    ]

    monitor = MonitorResult(
        scenario=result.scenario,
        setup=result.setup,
        seed=seed,
        score=score,
        alerts=engine.alert_dicts(),
        thresholds=engine.thresholds(),
        timeline=timeline,
        completed=result.completed,
        failed=result.failed,
        dispatch_hash=result.dispatch_hash,
        all_green=result.all_green,
        breakdown=phase_breakdown_json(obs.tracer),
    )
    monitor.extra["chaos_result"] = result
    return monitor


def monitor_table(results: List[MonitorResult],
                  title: str = "Detection scores") -> Table:
    """Table-style summary across scenarios (one row per run)."""
    rows = []
    for r in results:
        latency = r.score.mean_detection_latency_ms
        rows.append([
            r.scenario,
            r.setup,
            "GREEN" if r.ok else "RED",
            f"{r.score.recall:.2f}",
            f"{r.score.precision:.2f}",
            f"{latency:.0f}" if latency is not None else "—",
            str(r.score.false_alert_windows),
            str(len(r.alerts)),
        ])
    return Table(
        title=title,
        headers=["scenario", "setup", "ok", "recall", "precision",
                 "detect (ms)", "false win", "alerts"],
        rows=rows,
    )
