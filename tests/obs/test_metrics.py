"""Metrics registry unit tests — bucket boundaries pinned exactly."""

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_inc():
    c = Counter("rpcs")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert c.as_dict()["value"] == 5


def test_gauge_set_and_callable():
    g = Gauge("depth")
    g.set(3.0)
    assert g.value == 3.0
    state = {"n": 0}
    live = Gauge("live", fn=lambda: state["n"])
    state["n"] = 7
    assert live.value == 7  # read at access time, not at registration


class TestHistogramBuckets:
    """``le`` semantics: bucket i counts buckets[i-1] < v <= buckets[i]."""

    def test_value_on_boundary_lands_in_that_bucket(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(2.0)  # exactly on the 2.0 boundary -> bucket index 1
        assert h.bucket_counts == [0, 1, 0, 0]

    def test_value_below_first_boundary(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(0.5)
        h.observe(1.0)  # boundary inclusive
        assert h.bucket_counts == [2, 0, 0, 0]

    def test_value_between_boundaries(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(1.5)
        h.observe(3.9)
        assert h.bucket_counts == [0, 1, 1, 0]

    def test_overflow_bucket(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(4.0)   # last boundary: still in-range
        h.observe(4.001)  # beyond: overflow
        assert h.bucket_counts == [0, 0, 1, 1]

    def test_default_buckets_cover_paper_range(self):
        assert DEFAULT_LATENCY_BUCKETS_MS[0] == 0.1
        assert DEFAULT_LATENCY_BUCKETS_MS[-1] == 5_000.0
        assert list(DEFAULT_LATENCY_BUCKETS_MS) == sorted(DEFAULT_LATENCY_BUCKETS_MS)

    def test_stats(self):
        h = Histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 2.0, 8.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == pytest.approx(10.5)
        assert h.mean == pytest.approx(3.5)
        assert h.min == 0.5 and h.max == 8.0

    def test_quantile_returns_bucket_upper_bound(self):
        h = Histogram("lat", buckets=(1.0, 10.0, 100.0))
        for _ in range(9):
            h.observe(0.5)
        h.observe(50.0)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(0.99) == 100.0

    def test_quantile_empty(self):
        assert Histogram("lat").quantile(0.5) == 0.0


def test_registry_get_or_create_and_snapshot():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    reg.counter("x").inc(2)
    reg.gauge("g", fn=lambda: 42)
    reg.histogram("h", buckets=(1.0,)).observe(0.5)
    assert reg.get("x").value == 2
    assert reg.get("missing") is None
    snap = reg.snapshot()
    assert snap["counters"] == {"x": 2}
    assert snap["gauges"] == {"g": 42}
    assert snap["histograms"]["h"]["count"] == 1
    assert snap["histograms"]["h"]["bucket_counts"] == [1, 0]

