"""SLO burn-rate engine: calibration, firing, resolving, horizon.

These tests drive a :class:`TimeSeriesHub` synthetically — one list of
``(latency_ms, ok)`` ops per window — so each behaviour is checked in
isolation from the simulator.  The hypothesis test at the bottom pins the
docstring's shift-invariance claim: evaluation depends only on the
sequence of window aggregates, so translating the whole timeline by a
constant number of windows translates every alert by exactly that
constant.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.obs.slo import (SloEngine, SloSpec, component_liveness_slos,
                           default_slos, per_az_slos)
from repro.obs.timeseries import TimeSeriesHub

INTERVAL = TimeSeriesHub.INTERVAL_MS

# Four windows of healthy traffic: enough to calibrate every default spec
# (calibration_windows=4, min_ops<=4).
CALIBRATION = [[(0.5, True)] * 10 for _ in range(4)]


def drive(specs, windows, offset=0, load_window_ms=None):
    """Feed ``windows`` (one ops list per window) through a fresh engine."""
    hub = TimeSeriesHub()
    engine = SloEngine(specs, hub, load_window_ms=load_window_ms)
    for i, ops in enumerate(windows):
        now = (i + offset) * INTERVAL + 0.5
        hub.roll(now)                      # seal empty windows too
        for latency_ms, ok in ops:
            hub.record_op(1, latency_ms, ok, now)
    end = (offset + len(windows) - 1) * INTERVAL + 1.0
    hub.finalize(end)
    engine.finalize(end)
    return engine


# -- spec validation ---------------------------------------------------------

def test_spec_rejects_unknown_kind_and_bad_windows():
    with pytest.raises(ValueError):
        SloSpec(name="x", kind="vibes")
    with pytest.raises(ValueError):
        SloSpec(name="x", kind="availability", fast_windows=6, slow_windows=3)
    with pytest.raises(ValueError):
        SloSpec(name="x", kind="availability", error_budget=0.0)


def test_engine_rejects_duplicate_names():
    specs = [SloSpec(name="a", kind="availability")] * 2
    with pytest.raises(ValueError):
        SloEngine(specs, TimeSeriesHub())


# -- calibration gating ------------------------------------------------------

def test_no_alerts_until_calibration_completes():
    # Errors *during* the calibration phase never fire: the engine has no
    # baseline yet, so those windows only feed calibration (and windows
    # below min_ops don't even do that).
    engine = drive(default_slos(), [[(0.5, False)] * 10] * 3)
    assert engine.alerts == []
    thresholds = engine.thresholds()
    assert not thresholds["availability"]["calibrated"]


def test_calibration_sets_baselines_from_traffic_windows():
    engine = drive(default_slos(), CALIBRATION)
    t = engine.thresholds()
    assert t["latency-p99"]["calibrated"]
    assert t["latency-p99"]["baseline_ops_per_window"] == 10.0
    assert t["latency-p99"]["baseline_mean_ms"] == 0.5
    # 0.5ms ops land in the 0.5 bucket; p99×mult(1.0) floors at 5.0ms.
    assert t["latency-p99"]["latency_threshold_ms"] == 5.0


# -- firing and resolving per kind -------------------------------------------

def test_availability_alert_fires_on_error_burst_and_resolves():
    windows = CALIBRATION + [[(0.5, False)] * 5 + [(0.5, True)] * 5] * 3 \
        + [[(0.5, True)] * 10] * 4
    engine = drive(default_slos(), windows)
    fired = [a for a in engine.alerts if a.slo == "availability"]
    assert len(fired) == 1
    alert = fired[0]
    assert alert.fired_index == 4          # first post-calibration window
    assert alert.resolved_index is not None
    assert "finalize" not in alert.detail  # resolved by recovery, not teardown
    assert alert.peak_burn >= 2.0


def test_latency_alert_fires_on_tail_shift_without_errors():
    # 30% of ops jump past the calibrated 5ms threshold — all successful.
    slow = [[(8.0, True)] * 3 + [(0.5, True)] * 7] * 4
    engine = drive(default_slos(), CALIBRATION + slow)
    assert any(a.slo == "latency-p99" for a in engine.alerts)
    assert not any(a.slo == "availability" for a in engine.alerts)


def test_throughput_alert_fires_on_silence():
    # A closed-loop driver under total outage produces empty windows, not
    # errors; the throughput floor is the detector for that.
    engine = drive(default_slos(), CALIBRATION + [[]] * 4)
    fired = [a for a in engine.alerts if a.slo == "throughput-floor"]
    assert len(fired) == 1
    # Two silent windows satisfy min_ops=2 (empty windows weigh 1 op of
    # evidence each), so the floor fires on the second one.
    assert fired[0].fired_index == 5
    assert not any(a.slo == "availability" for a in engine.alerts)


def test_healthy_timeline_stays_silent():
    engine = drive(default_slos(), CALIBRATION + [[(0.5, True)] * 10] * 20)
    assert engine.alerts == []


def test_finalize_resolves_open_alerts():
    engine = drive(default_slos(), CALIBRATION + [[]] * 4)
    alert = engine.alerts[0]
    assert alert.resolved_index is not None
    assert "(resolved:finalize)" in alert.detail


# -- horizon -----------------------------------------------------------------

def test_load_window_anchors_horizon_and_suppresses_drain_silence():
    # Offered load stops after 4 windows; the quiet drain that follows
    # must not read as a throughput outage.
    engine = drive(default_slos(), CALIBRATION + [[]] * 8,
                   load_window_ms=4 * INTERVAL)
    assert engine.alerts == []
    # Same timeline, no horizon: the silence is an outage.
    assert drive(default_slos(), CALIBRATION + [[]] * 8).alerts != []


def test_load_window_anchor_skips_leading_idle_windows():
    engine = drive(default_slos(), [[]] * 3 + CALIBRATION + [[]] * 8,
                   load_window_ms=4 * INTERVAL)
    assert engine.alerts == []


# -- derived spec banks ------------------------------------------------------

def test_per_az_slos_only_for_multi_az():
    assert per_az_slos((1,)) == []
    specs = per_az_slos((1, 2, 3))
    assert [s.series for s in specs] == [
        "client.ops.az1", "client.ops.az2", "client.ops.az3"]
    assert all(s.kind == "throughput" for s in specs)


def test_component_liveness_floor_is_near_silence():
    specs = component_liveness_slos(["nn.handle.nn1", "nn.handle.nn2"])
    assert [s.name for s in specs] == [
        "liveness-nn.handle.nn1", "liveness-nn.handle.nn2"]
    assert all(s.drop_fraction == 0.1 for s in specs)


# -- shift invariance (hypothesis) -------------------------------------------

# A window is 0-12 ops drawn from a small latency/outcome alphabet; a
# timeline is 6-20 such windows.  Small alphabets keep shrinking effective.
_OP = st.tuples(st.sampled_from([0.2, 0.5, 8.0, 30.0]), st.booleans())
_TIMELINE = st.lists(st.lists(_OP, max_size=12), min_size=6, max_size=20)


def _normalized(engine, offset):
    return [
        (a.slo, a.fired_index - offset,
         None if a.resolved_index is None else a.resolved_index - offset,
         round(a.peak_burn, 9), a.windows, a.detail)
        for a in engine.alerts
    ]


@settings(max_examples=60, deadline=None)
@given(timeline=_TIMELINE, offset=st.integers(min_value=1, max_value=40))
def test_burn_rate_evaluation_is_window_shift_invariant(timeline, offset):
    base = drive(default_slos(), timeline, offset=0)
    shifted = drive(default_slos(), timeline, offset=offset)
    assert _normalized(shifted, offset) == _normalized(base, 0)
