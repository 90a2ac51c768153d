"""Windowed time-series hub: rolling, sealing, listeners, the availability view.

The hub is record-driven (no kernel process), so these tests drive it
directly with synthetic ``now`` values and check that windows seal at the
right boundaries, listeners see every sealed window in order, the shard
merge is commutative and associative like every other merge in the repo
(Histogram, MetricsCollector), and the availability view folds
``client.ops`` into its rows.  The last test runs a chaos scenario: a
namenode's handler series counts each reply it failed as an error.
"""

import random

import pytest

from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_MS
from repro.obs.timeseries import OpWindow, TimeSeriesHub

BUCKETS = DEFAULT_LATENCY_BUCKETS_MS


def _window(*ops):
    w = OpWindow()
    for latency_ms, ok in ops:
        w.observe(latency_ms)
        w.errors += not ok
    return w


# -- OpWindow ----------------------------------------------------------------

def test_op_window_observe_counts_errors_and_buckets():
    w = _window((0.3, True), (7.0, False), (2.5, True))  # 2.5: its own bucket (le)
    assert w.count == 3
    assert w.errors == 1
    assert w.total == pytest.approx(9.8)
    assert w.max == 7.0
    assert sum(w.bucket_counts) == 3
    assert w.bucket_counts[BUCKETS.index(0.5)] == 1   # 0.3 -> (0.25, 0.5]
    assert w.bucket_counts[BUCKETS.index(2.5)] == 1   # 2.5 -> (1.0, 2.5]
    assert w.bucket_counts[BUCKETS.index(10.0)] == 1  # 7.0 -> (5.0, 10.0]


def test_op_window_quantile_is_bucket_upper_bound():
    w = _window(*[(0.2, True)] * 99, (40.0, True))
    assert w.quantile(0.5) == 0.25
    assert w.quantile(0.999) == 50.0
    assert OpWindow().quantile(0.99) == 0.0


def test_op_window_overflow_quantile_reports_observed_max():
    w = _window((9999.0, True))  # beyond the last boundary
    assert w.bucket_counts[-1] == 1
    assert w.quantile(0.99) == 9999.0


def test_op_window_merge_is_commutative():
    rng = random.Random(5)

    def sample():
        return _window(*[(rng.uniform(0.05, 200.0), rng.random() > 0.1) for _ in range(50)])

    a, b = sample(), sample()
    ab, ba = a.merge(b), b.merge(a)
    assert isinstance(ab, OpWindow)
    assert (ab.as_dict(), ab.errors) == (ba.as_dict(), ba.errors)
    assert (ab.count, ab.errors) == (a.count + b.count, a.errors + b.errors)


# -- TimeSeriesHub: rolling and sealing --------------------------------------

def _sealed(hub):
    seen = []
    hub.subscribe(lambda index, start, end, sealed: seen.append(index))
    return seen


def test_hub_seals_windows_behind_now():
    hub = TimeSeriesHub()
    seen = _sealed(hub)
    hub.record_op(1, 0.5, True, now=3.0)
    hub.record_op(1, 0.5, True, now=7.0)
    assert seen == []                       # window 0 still open
    hub.record_op(2, 1.0, False, now=25.0)  # crosses into window 2
    assert seen == [0, 1]                   # windows 0 and 1 sealed
    rows = hub.series["client.ops"]
    assert rows[0].count == 2 and rows[0].errors == 0
    assert 1 not in rows                    # empty windows seal but hold no ops
    hub.finalize(25.0)
    rows = hub.series["client.ops"]
    assert rows[2].count == 1 and rows[2].errors == 1


def test_hub_per_az_and_component_series():
    hub = TimeSeriesHub()
    hub.record_op(1, 0.5, True, now=1.0)
    hub.record_op(0, 0.5, True, now=2.0)    # ANY_AZ: aggregate only
    hub.component_sample("nn.handle", "nn1", 0.2, True, now=3.0)
    hub.finalize(5.0)
    assert sorted(hub.series) == ["client.ops", "client.ops.az1", "nn.handle.nn1"]
    assert hub.series["client.ops"][0].count == 2
    assert hub.series["client.ops.az1"][0].count == 1
    assert hub.series["nn.handle.nn1"][0].count == 1


def test_hub_listener_sees_every_sealed_window_in_order():
    hub = TimeSeriesHub()
    seen = []
    hub.subscribe(lambda index, start, end, sealed:
                  seen.append((index, start, end,
                               sealed["client.ops"].count if "client.ops" in sealed else 0)))
    hub.record_op(1, 0.5, True, now=5.0)
    hub.record_op(1, 0.5, True, now=45.0)
    assert [s[0] for s in seen] == [0, 1, 2, 3]   # empty windows included
    assert seen[0] == (0, 0.0, 10.0, 1)
    assert seen[1][3] == 0


def test_hub_windowed_counters():
    hub = TimeSeriesHub()
    hub.inc("component.retired.nn.handle.nn1", now=1.0)
    hub.inc("component.retired.nn.handle.nn1", now=4.0, amount=2.0)
    hub.finalize(5.0)
    hub.inc("component.retired.nn.handle.nn1", now=12.0)
    hub.finalize(15.0)
    assert hub.series["component.retired.nn.handle.nn1"] == {0: 3.0, 1: 1.0}


def test_hub_roll_bounds_pathological_idle_jump():
    hub = TimeSeriesHub()
    seen = _sealed(hub)
    jump = hub.MAX_SEAL_PER_ROLL + 500
    hub.record_op(1, 0.5, True, now=1.0)
    hub.roll(hub.INTERVAL_MS * jump)
    assert len(seen) == hub.MAX_SEAL_PER_ROLL
    # The open window seals under its own index, not under the first
    # index of the bounded tail.
    assert seen[0] == 0
    assert hub.series["client.ops"] == {0: hub.series["client.ops"][0]}
    assert hub.availability()[0]["t_ms"] == 0.0
    # cursor still lands on the target window: recording continues correctly
    hub.record_op(1, 0.5, True, now=hub.INTERVAL_MS * jump + 1)
    hub.finalize(hub.INTERVAL_MS * jump + 2)
    assert sorted(hub.series["client.ops"]) == [0, jump]


# -- shard merge -------------------------------------------------------------

def _shard_hub(seed: int) -> TimeSeriesHub:
    # Dyadic latencies (multiples of 0.25) keep float sums exact, so the
    # associativity check can compare rows bitwise.  Real shard folds run
    # in sorted shard order precisely because float addition is only
    # associative up to rounding.
    rng = random.Random(seed)
    hub = TimeSeriesHub()
    now = 0.0
    for _ in range(80):
        now += rng.randrange(1, 12) * 0.25
        hub.record_op(rng.choice((1, 2, 3)), rng.randrange(1, 240) * 0.25,
                      rng.random() > 0.05, now)
        if rng.random() < 0.3:
            hub.inc("component.retired.nn.handle.nn1", now, amount=rng.randrange(1, 4))
    hub.finalize(now)
    return hub


def _rows(hub):
    return {name: {index: (value.as_dict(), value.errors) if isinstance(value, OpWindow)
                   else value for index, value in rows.items()}
            for name, rows in hub.series.items()}


def test_hub_merge_commutative():
    a, b = _shard_hub(1), _shard_hub(2)
    assert _rows(a.merge(b)) == _rows(b.merge(a))


def test_hub_merge_associative():
    a, b, c = _shard_hub(1), _shard_hub(2), _shard_hub(3)
    assert _rows(a.merge(b).merge(c)) == _rows(a.merge(b.merge(c)))


def test_hub_merge_adds_op_windows_index_wise():
    a, b = _shard_hub(1), _shard_hub(2)
    merged = a.merge(b)
    rows_a, rows_b = a.series["client.ops"], b.series["client.ops"]
    rows_m = merged.series["client.ops"]
    assert list(rows_m) == sorted(set(rows_a) | set(rows_b))
    for index, window in rows_m.items():
        expected = (rows_a[index].count if index in rows_a else 0) + (
            rows_b[index].count if index in rows_b else 0)
        assert window.count == expected


# -- the availability view ---------------------------------------------------

def test_availability_view_is_dense_rows_of_client_ops():
    hub = TimeSeriesHub()
    hub.record_op(1, 0.2, True, now=3.0)     # row 0 (t 0-20)
    hub.record_op(1, 0.2, False, now=15.0)   # row 0, second window
    hub.record_op(2, 0.2, True, now=61.0)    # row 3; rows 1-2 silent
    hub.component_sample("nn.handle", "nn1", 0.2, True, now=62.0)  # not a client op
    hub.finalize(62.0)
    assert hub.availability() == [
        {"t_ms": 0.0, "ok": 1, "failed": 1, "availability": 0.5},
        {"t_ms": 20.0, "ok": 0, "failed": 0, "availability": None},
        {"t_ms": 40.0, "ok": 0, "failed": 0, "availability": None},
        {"t_ms": 60.0, "ok": 1, "failed": 0, "availability": 1.0},
    ]
    assert TimeSeriesHub().availability() == []


# -- server handler series ---------------------------------------------------

def test_nn_handle_series_count_every_failed_reply():
    """Each op a namenode fails (``_fail``) is an error sample of its
    ``nn.handle.<nn>`` series: overload-burst's deadline failures too."""
    from repro.chaos.scenarios import run_scenario
    from repro.obs import ObsContext

    obs = ObsContext(timeseries=TimeSeriesHub())
    result = run_scenario("overload-burst", setup="hopsfs-cl-3-3", clients=32, obs=obs)
    harness = result.extra["harness"]
    obs.timeseries.finalize(harness.env.now)
    windows = [window for name, rows in obs.timeseries.series.items()
               if name.startswith("nn.handle.") for window in rows.values()]
    failed = sum(nn.ops_failed for nn in harness.deployment.namenodes)
    assert failed > 0
    assert sum(window.errors for window in windows) == failed
