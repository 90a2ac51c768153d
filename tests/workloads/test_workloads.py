"""Tests for namespace generation, the Spotify mix, and drivers."""

import pytest

from repro.metrics.collectors import MetricsCollector
from repro.sim import Environment
from repro.types import OpResult, OpType
from repro.workloads import (
    SPOTIFY_MIX,
    ClosedLoopDriver,
    OpenLoopDriver,
    SingleOpWorkload,
    SpotifyWorkload,
    generate_namespace,
)


def test_mix_sums_to_one():
    assert sum(SPOTIFY_MIX.values()) == pytest.approx(1.0, abs=0.005)


def test_mix_is_read_heavy():
    reads = sum(f for op, f in SPOTIFY_MIX.items() if not op.mutates)
    assert reads > 0.9  # the Spotify workload is ~95% reads


def test_namespace_shape():
    ns = generate_namespace(num_top_dirs=3, dirs_per_top=4, files_per_dir=5, seed=1)
    assert len(ns.top_dirs) == 3
    assert len(ns.dirs) == 12
    assert len(ns.files) == 60
    assert ns.size() == 75
    assert len(ns.file_weights) == 60
    assert sum(ns.file_weights) == pytest.approx(1.0)


def test_namespace_deterministic():
    a = generate_namespace(seed=7)
    b = generate_namespace(seed=7)
    assert a.files == b.files
    assert a.file_weights == b.file_weights


def test_spotify_ops_reference_existing_or_created_paths():
    ns = generate_namespace(num_top_dirs=2, dirs_per_top=3, files_per_dir=4, seed=2)
    wl = SpotifyWorkload(ns, seed=2)
    known = set(ns.files) | set(ns.dirs) | set(ns.top_dirs)
    created = set()
    for _ in range(500):
        op, kwargs = wl.next_op(client_id=0)
        if op in (OpType.READ_FILE, OpType.STAT, OpType.EXISTS, OpType.CHMOD):
            assert kwargs["path"] in known | created
        elif op is OpType.CREATE_FILE:
            assert kwargs["path"] not in known | created
            created.add(kwargs["path"])
        elif op is OpType.DELETE_FILE:
            assert kwargs["path"] in created
            created.discard(kwargs["path"])
        elif op is OpType.RENAME:
            assert kwargs["src"] in created
            created.discard(kwargs["src"])
            created.add(kwargs["dst"])


def test_spotify_working_sets_are_stable_per_client():
    ns = generate_namespace(seed=3)
    wl = SpotifyWorkload(ns, seed=3)
    ws1 = wl.working_set(1)
    assert wl.working_set(1) is ws1
    assert len(ws1) == wl.working_set_size
    assert set(ws1) <= set(ns.files)
    assert wl.working_set(2) != ws1  # different clients, different sets


def test_single_op_workload_delete_needs_precreate():
    ns = generate_namespace(seed=4)
    wl = SingleOpWorkload(OpType.DELETE_FILE, ns, seed=4)
    paths = wl.precreate_paths(3)
    assert len(paths) == 3
    ops = [wl.next_op() for _ in range(4)]
    assert [o for o, _ in ops[:3]] == [OpType.DELETE_FILE] * 3
    assert ops[3][0] is OpType.READ_FILE  # graceful fallback when exhausted


class _StubClient:
    """Completes every op after a fixed simulated delay."""

    last_op_failures = 0  # what drivers read of every client (FsClient's)

    def __init__(self, env, delay):
        self.env = env
        self.delay = delay
        self.ops = 0

    def run(self, op, kwargs):
        self.ops += 1
        yield self.env.timeout(self.delay)
        return True


class _StubWorkload:
    def next_op(self, client_id=None):
        return OpType.STAT, {"path": "/x"}


def test_closed_loop_driver_throughput():
    env = Environment()
    clients = [_StubClient(env, delay=2.0) for _ in range(4)]
    collector = MetricsCollector()
    driver = ClosedLoopDriver(env, clients, _StubWorkload(), collector)
    collector.open_window(0)
    driver.start()
    env.run(until=20)
    collector.close_window(20)
    # 4 clients x one op per 2ms x 20ms = 40 ops
    assert collector.completed == 40
    assert collector.throughput_ops_per_sec() == pytest.approx(2000)


def test_open_loop_driver_rate():
    env = Environment()
    clients = [_StubClient(env, delay=0.5) for _ in range(8)]
    collector = MetricsCollector()
    driver = OpenLoopDriver(env, clients, _StubWorkload(), collector, rate_per_ms=2.0)
    collector.open_window(0)
    driver.start()
    env.run(until=50)
    collector.close_window(50)
    assert collector.completed == pytest.approx(100, abs=3)


def test_collector_records_nothing_before_window_opens():
    collector = MetricsCollector()
    collector.record(OpResult(op=OpType.STAT, start_ms=0, end_ms=1))
    assert collector.completed == 0  # warmup ops are not measured
    collector.open_window(10)
    collector.record(OpResult(op=OpType.STAT, start_ms=10, end_ms=12))
    assert collector.completed == 1


def test_collector_window_filtering():
    collector = MetricsCollector()
    collector.open_window(10)
    collector.close_window(20)
    collector.record(OpResult(op=OpType.STAT, start_ms=0, end_ms=5))  # before
    collector.record(OpResult(op=OpType.STAT, start_ms=11, end_ms=15))  # inside
    collector.record(OpResult(op=OpType.STAT, start_ms=19, end_ms=25))  # after
    assert collector.completed == 1


def test_collector_failures_counted():
    collector = MetricsCollector()
    collector.open_window(0)
    collector.record(OpResult(op=OpType.STAT, start_ms=0, end_ms=1, ok=False, error="boom"))
    collector.record(OpResult(op=OpType.STAT, start_ms=0, end_ms=1))
    assert collector.failed == 1
    assert collector.failure_rate() == pytest.approx(0.5)
