"""Merge-safety of Histogram, MetricsCollector and the availability timeline.

The sharded scale engine folds per-shard collectors, histograms and
time-series hubs into one merged artifact.  The fold must be associative
and order-deterministic: ``merge(a, b)`` and ``merge(b, a)`` agree on every
count, total and derived number, and ``merge(merge(a, b), c) ==
merge(a, merge(b, c))``.
"""

import random

import pytest

from repro.metrics.collectors import MetricsCollector
from repro.obs.metrics import Histogram
from repro.obs.timeseries import TimeSeriesHub
from repro.types import OpResult, OpType


def _histogram(seed: int, n: int = 200) -> Histogram:
    rng = random.Random(seed)
    h = Histogram("scale.latency_ms")
    for _ in range(n):
        h.observe(rng.uniform(0.01, 6000.0))
    return h


def _collector(seed: int, n: int = 120) -> MetricsCollector:
    rng = random.Random(seed)
    c = MetricsCollector()
    c.open_window(0.0)
    ops = list(OpType)
    for i in range(n):
        ok = rng.random() > 0.1
        c.record(
            OpResult(
                op=rng.choice(ops),
                start_ms=float(i),
                end_ms=float(i) + rng.uniform(0.1, 20.0) * 0.001 + 0.5,
                ok=ok,
                error=None if ok else "FsError",
                retries=rng.randrange(3),
            )
        )
    c.close_window(1000.0)
    return c


# -- Histogram ---------------------------------------------------------------

def test_histogram_merge_commutative_on_counts_and_totals():
    a, b = _histogram(1), _histogram(2)
    ab, ba = a.merge(b), b.merge(a)
    assert ab.bucket_counts == ba.bucket_counts
    assert ab.count == ba.count == a.count + b.count
    assert ab.total == ba.total
    assert ab.min == ba.min and ab.max == ba.max


def test_histogram_merge_associative():
    a, b, c = _histogram(1), _histogram(2), _histogram(3)
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert left.bucket_counts == right.bucket_counts
    assert left.count == right.count
    assert left.total == right.total


def test_histogram_merge_does_not_mutate_inputs():
    a, b = _histogram(1), _histogram(2)
    before = (list(a.bucket_counts), a.count, a.total)
    a.merge(b)
    assert (list(a.bucket_counts), a.count, a.total) == before


def test_histogram_merge_with_empty_is_identity():
    a = _histogram(1)
    empty = Histogram("scale.latency_ms")
    merged = a.merge(empty)
    assert merged.bucket_counts == a.bucket_counts
    assert merged.count == a.count
    assert merged.min == a.min and merged.max == a.max


def test_histogram_merge_rejects_mismatched_buckets():
    a = Histogram("a", buckets=(1.0, 2.0))
    b = Histogram("b", buckets=(1.0, 3.0))
    with pytest.raises(ValueError):
        a.merge(b)


# -- MetricsCollector --------------------------------------------------------

def test_collector_merge_commutative():
    a, b = _collector(1), _collector(2)
    ab, ba = a.merge(b), b.merge(a)
    assert ab.completed == ba.completed == a.completed + b.completed
    assert ab.failed == ba.failed
    assert ab.retried == ba.retried
    assert ab.latencies_ms == ba.latencies_ms  # sorted => order-free
    assert dict(ab.by_op) == dict(ba.by_op)
    assert ab.summary() == ba.summary()


def test_collector_merge_associative_summary():
    a, b, c = _collector(1), _collector(2), _collector(3)
    assert a.merge(b).merge(c).summary() == a.merge(b.merge(c)).summary()


def test_collector_merge_window_is_union():
    a, b = MetricsCollector(), MetricsCollector()
    a.open_window(10.0)
    a.close_window(50.0)
    b.open_window(20.0)
    b.close_window(80.0)
    merged = a.merge(b)
    assert merged.window_start == 10.0
    assert merged.window_end == 80.0


def test_collector_merge_handles_unopened_windows():
    a, b = _collector(1), MetricsCollector()
    merged = a.merge(b)
    assert merged.window_start == a.window_start
    assert merged.window_end == a.window_end
    assert merged.completed == a.completed


def test_collector_merge_percentiles_match_pooled_population():
    a, b = _collector(1), _collector(2)
    merged = a.merge(b)
    pooled = MetricsCollector()
    pooled.open_window(0.0)
    pooled.latencies_ms = sorted(a.latencies_ms + b.latencies_ms)
    pooled.close_window(1000.0)
    assert merged.latency_percentiles() == pooled.latency_percentiles()


# -- the availability timeline: hub merge, then view ------------------------

def _timeline(seed: int, n: int = 120) -> TimeSeriesHub:
    """One shard's hub fed the way a driver feeds it: one record per op."""
    rng = random.Random(seed)
    hub = TimeSeriesHub()
    ends = sorted(rng.uniform(0.0, 900.0) + rng.uniform(0.1, 20.0) for _ in range(n))
    for end in ends:
        hub.record_op(rng.choice((1, 2, 3)), rng.uniform(0.1, 20.0), rng.random() > 0.1, end)
    hub.finalize(1000.0)
    return hub


def test_timeline_merge_commutative():
    a, b = _timeline(1), _timeline(2)
    assert a.merge(b).availability() == b.merge(a).availability()


def test_timeline_merge_associative():
    a, b, c = _timeline(1), _timeline(2), _timeline(3)
    assert a.merge(b).merge(c).availability() == a.merge(b.merge(c)).availability()


def test_timeline_merge_buckets_add_index_wise():
    a, b = _timeline(1), _timeline(2)
    merged = {row["t_ms"]: row for row in a.merge(b).availability()}
    sides = [{row["t_ms"]: row for row in hub.availability()} for hub in (a, b)]
    assert set(merged) == set(sides[0]) | set(sides[1])
    for t_ms, row in merged.items():
        for key in ("ok", "failed"):
            assert row[key] == sum(side[t_ms][key] for side in sides if t_ms in side)


def test_timeline_merge_does_not_mutate_inputs():
    a, b = _timeline(1), _timeline(2)
    before_a, before_b = a.availability(), b.availability()
    a.merge(b)
    assert a.availability() == before_a
    assert b.availability() == before_b
