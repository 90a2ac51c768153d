"""Failed-op accounting in MetricsCollector.

Failed operations must contribute their retries and their error class, and
never skew the headline success percentiles.
"""

import pytest

from repro.metrics.collectors import MetricsCollector
from repro.types import OpResult, OpType


def _result(ok, start=0.0, end=5.0, retries=0):
    return OpResult(op=OpType.STAT, start_ms=start, end_ms=end, ok=ok, retries=retries)


def _collector():
    c = MetricsCollector()
    c.open_window(0.0)
    c.close_window(100.0)
    return c


def test_failed_ops_record_latency_and_retries():
    c = _collector()
    c.record(_result(ok=False, end=30.0, retries=3))
    c.record(_result(ok=False, end=10.0, retries=1))
    assert c.failed == 2
    assert c.retried == 4
    assert c.latencies_ms == []  # a failed op's latency is not a success latency


def test_failed_latencies_do_not_skew_success_percentiles():
    c = _collector()
    c.record(_result(ok=True, end=1.0))
    c.record(_result(ok=False, end=99.0, retries=5))
    assert c.completed == 1
    assert c.latencies_ms == [1.0]  # success population untouched
    assert c.latency_percentiles()[99] == 1.0
    assert c.failure_rate() == pytest.approx(0.5)


def test_retries_counted_for_both_outcomes():
    c = _collector()
    c.record(_result(ok=True, retries=2))
    c.record(_result(ok=False, retries=3))
    assert c.retried == 5


def test_out_of_window_failures_ignored():
    c = _collector()
    c.record(_result(ok=False, start=100.0, end=150.0, retries=9))
    assert c.failed == 0
    assert c.retried == 0
    assert dict(c.failed_errors) == {}


def _failed(error, end=5.0):
    return OpResult(op=OpType.STAT, start_ms=0.0, end_ms=end, ok=False, error=error)


def test_failed_ops_are_tallied_by_error_class_inside_the_window():
    c = MetricsCollector()
    c.record(_failed("FileNotFoundFsError"))  # warm-up: window not open
    c.open_window(0.0)
    c.record(_failed("FileNotFoundFsError"))
    c.record(_failed("FileNotFoundFsError"))
    c.record(_failed("NoNamenodeError"))
    c.record(_failed(None))
    c.record(_result(ok=True))
    c.close_window(50.0)
    c.record(_failed("NoNamenodeError", end=60.0))  # drain: window closed
    assert dict(c.failed_errors) == {
        "FileNotFoundFsError": 2, "NoNamenodeError": 1, "unclassified": 1}
    assert sum(c.failed_errors.values()) == c.failed == 4
    # Scale artifacts hash ``summary()`` (pinned goldens): the tally stays out.
    assert "failed_by_error" not in c.summary()


def test_error_tally_merges_key_wise():
    a, b = MetricsCollector(), MetricsCollector()
    for c in (a, b):
        c.open_window(0.0)
    a.record(_failed("FileNotFoundFsError"))
    a.record(_failed("NoNamenodeError"))
    b.record(_failed("FileNotFoundFsError"))
    merged = a.merge(b)
    assert dict(merged.failed_errors) == {"FileNotFoundFsError": 2, "NoNamenodeError": 1}
    assert dict(b.merge(a).failed_errors) == dict(merged.failed_errors)
