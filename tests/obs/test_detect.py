"""Detector scoring: ground-truth windows, flap damping, monitor runs.

Unit tests build schedules and alerts by hand; the two integration tests
at the bottom run the full monitored stack once on the fault-free
baseline (must stay silent) and once on an AZ outage (must detect it).
"""

import pytest

from repro.obs.detect import (BASELINE_SCENARIO, FaultWindow, fault_windows,
                              monitor_slos, run_monitor, score_alerts)
from repro.obs.slo import Alert


def _event(at_ms, action, node=None, az=None):
    return {"at_ms": at_ms, "action": action, "node": node, "az": az}


# fault_trace rows only need their absolute completion time in column 0.
_TRACE = [(100.0, "x")]


# -- fault_windows -----------------------------------------------------------

def test_fault_windows_recovers_absolute_origin():
    # Schedule times are injector-relative; the first trace entry is the
    # first event's absolute completion, so origin = 100 - 10 = 90.
    schedule = [
        _event(10.0, "crash_node", node="nn1"),
        _event(60.0, "recover_node", node="nn1"),
    ]
    trace = [(100.0, "crash nn1")]
    windows = fault_windows(schedule, trace, run_end_ms=500.0)
    assert len(windows) == 1
    assert windows[0].fault_class == "crash_node"
    assert windows[0].start_ms == 100.0
    assert windows[0].end_ms == 150.0


def test_fault_windows_closers_match_by_key():
    schedule = [
        _event(0.0, "crash_node", node="nn1"),
        _event(20.0, "crash_node", node="nn2"),
        _event(50.0, "recover_node", node="nn2"),   # must not close nn1
        _event(90.0, "recover_node", node="nn1"),
    ]
    # The two overlapping crash windows merge into one episode; the episode
    # runs to nn1's recovery at 190 — if the nn2 closer wrongly closed nn1
    # too, the episode would end at 150.
    (window,) = fault_windows(schedule, _TRACE, run_end_ms=500.0)
    assert (window.start_ms, window.end_ms) == (100.0, 190.0)


def test_fault_windows_recover_all_closes_everything():
    schedule = [
        _event(0.0, "az_outage", az=2),
        _event(10.0, "partition"),
        _event(40.0, "recover_all"),
    ]
    windows = fault_windows(schedule, _TRACE, run_end_ms=500.0)
    assert {w.fault_class for w in windows} == {"az_outage", "partition"}
    assert all(w.end_ms == 140.0 for w in windows)


def test_fault_windows_unclosed_fault_runs_to_end():
    schedule = [_event(0.0, "degrade_link")]
    (window,) = fault_windows(schedule, _TRACE, run_end_ms=321.0)
    assert (window.start_ms, window.end_ms) == (100.0, 321.0)


def test_fault_windows_merges_same_class_episodes():
    # Rolling restarts: three staggered crashes are one fault episode,
    # not three independently-detectable windows.
    schedule = [
        _event(0.0, "crash_node", node="nn1"),
        _event(30.0, "recover_node", node="nn1"),
        _event(60.0, "crash_node", node="nn2"),
        _event(90.0, "recover_node", node="nn2"),
    ]
    merged = fault_windows(schedule, _TRACE, run_end_ms=500.0, merge_gap_ms=40.0)
    assert len(merged) == 1
    assert (merged[0].start_ms, merged[0].end_ms) == (100.0, 190.0)
    # Without the gap the 30ms healthy gap keeps them distinct.
    assert len(fault_windows(schedule, _TRACE, run_end_ms=500.0)) == 2


def test_fault_windows_empty_inputs():
    assert fault_windows([], [], 100.0) == []
    assert fault_windows([_event(0.0, "partition")], [], 100.0) == []


# -- score_alerts ------------------------------------------------------------

def _alert(slo, fired_ms, resolved_ms, windows=3):
    return Alert(slo=slo, kind="availability", series="client.ops",
                 fired_index=int(fired_ms // 10), fired_ms=fired_ms,
                 resolved_index=int(resolved_ms // 10), resolved_ms=resolved_ms,
                 peak_burn=5.0, windows=windows)


def test_score_alerts_matches_inside_window_plus_grace():
    windows = [FaultWindow("partition", 100.0, 200.0)]
    score = score_alerts(windows, [_alert("availability", 130.0, 210.0)],
                         grace_ms=60.0)
    assert score.recall == 1.0
    assert score.precision == 1.0
    assert score.false_alert_windows == 0
    assert windows[0].detection_latency_ms == 30.0
    assert windows[0].detected_by == ["availability"]


def test_score_alerts_outside_grace_is_false_positive():
    windows = [FaultWindow("partition", 100.0, 200.0)]
    score = score_alerts(windows, [_alert("availability", 280.0, 300.0, windows=4)],
                         grace_ms=60.0)
    assert score.recall == 0.0
    assert score.precision == 0.0
    assert score.false_alert_windows == 4


def test_score_alerts_flap_damping_merges_refires():
    # One SLO resolving and re-firing within the flap gap is one incident:
    # detection latency reads from the first fire, and the second fire
    # (inside the grace tail) cannot count as an extra matched alert.
    windows = [FaultWindow("az_outage", 100.0, 200.0)]
    flappy = [_alert("availability", 120.0, 150.0),
              _alert("availability", 190.0, 230.0)]
    score = score_alerts(windows, flappy, grace_ms=60.0)
    assert score.total_alerts == 1
    assert score.precision == 1.0
    assert windows[0].detection_latency_ms == 20.0


def test_score_alerts_distinct_slos_do_not_damp_together():
    windows = [FaultWindow("az_outage", 100.0, 200.0)]
    score = score_alerts(windows, [_alert("availability", 120.0, 150.0),
                                   _alert("latency-p99", 190.0, 230.0)],
                         grace_ms=60.0)
    assert score.total_alerts == 2
    assert sorted(windows[0].detected_by) == ["availability", "latency-p99"]


def test_score_alerts_damping_does_not_mutate_engine_alerts():
    flappy = [_alert("availability", 120.0, 150.0),
              _alert("availability", 190.0, 230.0)]
    score_alerts([FaultWindow("az_outage", 100.0, 200.0)], flappy, grace_ms=60.0)
    assert flappy[0].resolved_ms == 150.0   # originals untouched


def test_empty_run_scores_perfect():
    score = score_alerts([], [])
    assert score.recall == 1.0 and score.precision == 1.0
    assert score.false_alert_windows == 0


# -- monitor_slos ------------------------------------------------------------

def test_monitor_slos_derives_per_setup_bank():
    hopsfs = monitor_slos("HopsFS-CL (3,3)")
    names = [s.name for s in hopsfs]
    assert "availability" in names
    assert "throughput-az1" in names and "throughput-az3" in names
    assert "liveness-nn.handle.nn1" in names
    cephfs = [s.name for s in monitor_slos("CephFS")]
    assert "liveness-mds.handle.mds1" in cephfs
    single_az = [s.name for s in monitor_slos("HopsFS (3,1)")]
    assert not any(n.startswith("throughput-az") for n in single_az)


def test_run_monitor_rejects_unknown_scenario():
    with pytest.raises(ValueError):
        run_monitor("no-such-scenario")


# -- full monitored runs -----------------------------------------------------

def test_baseline_run_is_silent_and_green():
    # Default scenario load: thinner traffic makes the p99 objective
    # noisy, and silence-on-baseline is a claim about the real workload.
    result = run_monitor(BASELINE_SCENARIO, "HopsFS-CL (3,3)", seed=7)
    assert result.ok
    assert result.alerts == []
    assert result.score.windows == []
    assert result.score.false_alert_windows == 0
    assert result.all_green
    # The artifact embeds the Table-1-style phase breakdown (satellite of
    # the report --json path) and a non-empty op-rate timeline.
    assert result.breakdown["ops"]
    assert any(row["count"] for row in result.timeline)
    payload = result.to_json()
    assert payload["ok"] is True and payload["breakdown"]["ops"]


def test_az_outage_is_detected_with_latency():
    result = run_monitor("az-outage-under-load", "HopsFS-CL (3,3)", seed=99)
    assert result.ok
    assert result.score.recall == 1.0
    assert result.score.precision == 1.0
    assert result.score.false_alert_windows == 0
    (window,) = result.score.windows
    assert window.fault_class == "az_outage"
    assert window.detected and window.detected_by
    assert window.detection_latency_ms is not None
    assert 0.0 <= window.detection_latency_ms <= 60.0
    assert "DETECTED" in result.render()
    # One op series per run: the chaos availability timeline is the
    # monitor's client.ops rows folded to 20 ms — the same ops, and none of
    # the set-up ops that seed the block layer before the load starts.
    folded = {}
    for row in result.timeline:
        counts = folded.setdefault(row["t_ms"] // 20.0 * 20.0, [0, 0])
        counts[0] += row["count"] - row["errors"]
        counts[1] += row["errors"]
    timeline = result.extra["chaos_result"].timeline
    assert folded == {row["t_ms"]: [row["ok"], row["failed"]]
                      for row in timeline if row["ok"] + row["failed"]}
