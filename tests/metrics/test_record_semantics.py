"""``MetricsCollector.record`` at every window boundary, and read-only reads.

``record`` tests the window and computes the latency inline, once per op.
``_reference_record`` is the unfused form — ``_in_window`` as a call, the
latency as ``end - start`` wherever it is used — and both must leave a
collector in the same state for any op at any boundary.
"""

import random

import pytest

from repro.metrics.collectors import MetricsCollector
from repro.types import OpResult, OpType


def _reference_record(c: MetricsCollector, result: OpResult) -> None:
    if not c._in_window(result.end_ms):
        return
    if not result.ok:
        c.failed += 1
        c.retried += result.retries
        c.failed_errors[result.error or "unclassified"] += 1
        return
    c.completed += 1
    c.retried += result.retries
    c.by_op[result.op] += 1
    c.latencies_ms.append(result.end_ms - result.start_ms)
    c.latencies_by_op[result.op].append(result.end_ms - result.start_ms)


def _state(c: MetricsCollector) -> tuple:
    return (
        c.completed, c.failed, c.retried, c.latencies_ms, dict(c.failed_errors),
        dict(c.by_op), {op: list(v) for op, v in c.latencies_by_op.items()},
    )


# (window_start, window_end): unopened, open-ended, closed, empty.
_WINDOWS = [(None, None), (10.0, None), (10.0, 20.0), (10.0, 10.0)]
# End times on, just inside and just outside either edge.
_ENDS = [9.999999, 10.0, 10.000001, 15.0, 19.999999, 20.0, 20.000001, 25.0]


@pytest.mark.parametrize("window", _WINDOWS)
@pytest.mark.parametrize("ok", [True, False])
def test_record_matches_reference_at_every_boundary(window, ok):
    for end in _ENDS:
        for start in (end, end - 2.5):  # start == end: a zero-latency op
            got, want = MetricsCollector(*window), MetricsCollector(*window)
            result = OpResult(OpType.STAT, start, end, ok, 3, None if ok else "FsError")
            got.record(result)
            _reference_record(want, result)
            assert _state(got) == _state(want), (window, end, start, ok)


def test_window_edges_are_inclusive_and_unopened_window_drops():
    c = MetricsCollector()
    c.record(OpResult(OpType.STAT, 0.0, 1.0))
    assert c.completed == 0  # warm-up: the window is not open yet
    c.open_window(10.0)
    c.record(OpResult(OpType.STAT, 5.0, 10.0))  # ends on the opening edge
    c.close_window(20.0)
    c.record(OpResult(OpType.STAT, 15.0, 20.0))  # ends on the closing edge
    c.record(OpResult(OpType.STAT, 15.0, 20.000001))
    c.record(OpResult(OpType.STAT, 5.0, 9.999999))
    assert c.completed == 2
    assert c.latencies_ms == [5.0, 5.0]


def test_record_matches_reference_on_a_mixed_stream():
    rng = random.Random(5)
    got, want = MetricsCollector(), MetricsCollector()
    ops = [OpType.STAT, OpType.READ_FILE, OpType.MKDIR]
    for i in range(3_000):
        now = i * 0.25
        if i == 500:
            got.open_window(now)
            want.open_window(now)
        if i == 2_500:
            got.close_window(now)
            want.close_window(now)
        ok = rng.random() > 0.1
        result = OpResult(
            rng.choice(ops), now - rng.random() * 3, now, ok, rng.randrange(3),
            None if ok else "FileNotFoundFsError",
        )
        got.record(result)
        _reference_record(want, result)
    assert _state(got) == _state(want)
    assert got.completed and got.failed  # both populations exercised
    assert list(got.latencies_by_op) == list(want.latencies_by_op)  # key order too


def test_reading_a_percentile_does_not_insert_a_phantom_op():
    """``latency_percentiles(op=X)`` used to index the defaultdict, leaving
    ``{X: []}`` behind for ``merge()`` and per-op loops to carry."""
    c = MetricsCollector()
    assert c.latency_percentiles(op=OpType.STAT) == {50: 0.0, 90: 0.0, 99: 0.0}
    assert dict(c.latencies_by_op) == {}
    c.open_window(0.0)
    c.record(OpResult(OpType.MKDIR, 0.0, 4.0))
    assert c.latency_percentiles(op=OpType.STAT)[50] == 0.0
    assert c.latency_percentiles(op=OpType.MKDIR)[50] == 4.0
    assert list(c.latencies_by_op) == [OpType.MKDIR]
    assert list(c.merge(MetricsCollector()).latencies_by_op) == [OpType.MKDIR]


def test_op_result_is_a_slotted_record_without_dead_fields():
    result = OpResult(OpType.STAT, 1.0, 3.5, False, 2, "FsError")
    assert (result.ok, result.retries, result.error, result.latency_ms) == (
        False, 2, "FsError", 2.5)
    assert not hasattr(result, "__dict__")
    for dead in ("extra", "served_by"):
        assert not hasattr(result, dead)
