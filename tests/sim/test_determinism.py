"""Whole-stack determinism: identical seeds replay identically.

Changing any RNG usage pattern silently breaks reproducibility; this test
pins it down at the level of a full deployment run, including message
traces and read statistics — not just aggregate numbers.

The ``test_golden_*`` tests go further: they compare against
``golden/golden_kernel.json``, captured on the pre-refactor kernel, so the
fast-path kernel is provably schedule-identical to the naive one — same
(time, priority, seq) dispatch trace, same fig5/fig14 numbers.  The file is
the ``golden_kernel`` pin of ``benchmarks/pins.py`` (producer:
:func:`golden_kernel`); after an *intentional* schedule change re-pin it
with ``python3 benchmarks/repin.py golden_kernel`` and say why in the
commit message.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import RunConfig, run_point
from repro.hopsfs import HopsFsConfig, build_hopsfs
from repro.metrics.collectors import MetricsCollector
from repro.ndb import NdbConfig
from repro.sim import dispatch_hash
from repro.workloads import ClosedLoopDriver, SpotifyWorkload, generate_namespace
from repro.workloads.namespace import install_hopsfs


def _run_once(seed):
    fs = build_hopsfs(
        num_namenodes=2,
        azs=(1, 2, 3),
        az_aware=True,
        ndb_config=NdbConfig(num_datanodes=6, replication=3, az_aware=True),
        hopsfs_config=HopsFsConfig(
            election_period_ms=50.0, op_cost_read_ms=0.02, op_cost_mutation_ms=0.04
        ),
        seed=seed,
    )
    env = fs.env
    namespace = generate_namespace(num_top_dirs=2, dirs_per_top=4, files_per_dir=8, seed=seed)
    install_hopsfs(fs, namespace)
    clients = [fs.client() for _ in range(8)]
    collector = MetricsCollector()
    collector.open_window(0)
    workload = SpotifyWorkload(namespace, seed=seed)
    driver = ClosedLoopDriver(env, clients, workload, collector)

    def scenario():
        yield from fs.await_election()
        driver.start()
        yield env.timeout(40)
        driver.stop()

    env.run_process(scenario(), until=120_000)
    collector.close_window(env.now)
    fingerprint = (
        collector.completed,
        collector.failed,
        round(sum(collector.latencies_ms), 6),
        fs.network.traffic.messages,
        fs.network.traffic.total_bytes,
        fs.ndb.read_stats.total_reads(),
        tuple(sorted(fs.ndb.read_stats.by_replica.items())),
    )
    return fingerprint


def test_identical_seed_identical_run():
    assert _run_once(5) == _run_once(5)


def test_different_seed_different_run():
    assert _run_once(5) != _run_once(6)


# -- golden comparisons against the pre-refactor kernel ---------------------

_GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_kernel.json"


@pytest.fixture(autouse=True)
def _pin_bench_scale(monkeypatch):
    # Golden runs were captured at scale 1; run_point windows scale with it.
    monkeypatch.setenv("REPRO_BENCH_SCALE", "1.0")


def _golden():
    with open(_GOLDEN_PATH) as fh:
        return json.load(fh)


def _traced_mini_run(seed=5):
    """The _run_once scenario, with the kernel's dispatch trace recorded."""
    fs = build_hopsfs(
        num_namenodes=2,
        azs=(1, 2, 3),
        az_aware=True,
        ndb_config=NdbConfig(num_datanodes=6, replication=3, az_aware=True),
        hopsfs_config=HopsFsConfig(
            election_period_ms=50.0, op_cost_read_ms=0.02, op_cost_mutation_ms=0.04
        ),
        seed=seed,
    )
    env = fs.env
    env.trace = []  # every dispatched (when, priority, seq); disables batching
    namespace = generate_namespace(num_top_dirs=2, dirs_per_top=4, files_per_dir=8, seed=seed)
    install_hopsfs(fs, namespace)
    clients = [fs.client() for _ in range(8)]
    collector = MetricsCollector()
    collector.open_window(0)
    workload = SpotifyWorkload(namespace, seed=seed)
    driver = ClosedLoopDriver(env, clients, workload, collector)

    def scenario():
        yield from fs.await_election()
        driver.start()
        yield env.timeout(40)
        driver.stop()

    env.run_process(scenario(), until=120_000)
    collector.close_window(env.now)
    fingerprint = {
        "completed": collector.completed,
        "failed": collector.failed,
        "latency_sum_ms": repr(sum(collector.latencies_ms)),
        "messages": fs.network.traffic.messages,
        "total_bytes": fs.network.traffic.total_bytes,
        "total_reads": fs.ndb.read_stats.total_reads(),
        "by_replica": sorted(fs.ndb.read_stats.by_replica.items()),
    }
    return {
        "trace_len": len(env.trace),
        "trace_sha256": dispatch_hash(env.trace),
        "fingerprint": fingerprint,
    }


def _mini_fig5_point():
    point = run_point("HopsFS-CL (3,3)", 3, config=RunConfig(warmup_ms=5.0, window_ms=5.0))
    return {
        "setup": point.setup,
        "servers": point.servers,
        "throughput_ops_s": repr(point.throughput_ops_s),
        "avg_latency_ms": repr(point.avg_latency_ms),
        "p50_ms": repr(point.p50_ms),
        "p99_ms": repr(point.p99_ms),
        "completed": point.completed,
        "failed": point.failed,
        "cross_az_mb": repr(point.resource.cross_az_mb),
    }


def _mini_fig14(read_backup=True):
    fs = build_hopsfs(
        num_namenodes=3,
        azs=(1, 2, 3),
        az_aware=True,
        ndb_config=NdbConfig(num_datanodes=6, replication=3, az_aware=True),
        hopsfs_config=HopsFsConfig(election_period_ms=100.0),
        seed=3,
    )
    if not read_backup:
        for tdef in fs.ndb.schema.tables():
            object.__setattr__(tdef, "read_backup", False)
    env = fs.env
    namespace = generate_namespace(num_top_dirs=2, dirs_per_top=4, files_per_dir=8, seed=3)
    install_hopsfs(fs, namespace)
    env.run_process(fs.await_election(), until=60_000)
    workload = SpotifyWorkload(namespace, seed=3)
    clients = [fs.client() for _ in range(24)]
    collector = MetricsCollector()
    collector.open_window(env.now)
    driver = ClosedLoopDriver(env, clients, workload, collector)
    driver.start()
    env.run(until=env.now + 30)
    driver.stop()
    collector.close_window(env.now)
    by_replica = sorted(fs.ndb.read_stats.by_replica.items())
    total = sum(v for _k, v in by_replica) or 1
    return {
        "read_backup": read_backup,
        "completed": collector.completed,
        "by_replica": by_replica,
        "primary_fraction": repr(
            sum(v for (_t, _p, role), v in by_replica if role == 0) / total
        ),
    }


def golden_kernel():
    """The whole golden file; needs ``REPRO_BENCH_SCALE=1`` like the tests."""
    return {
        "traced_run": _traced_mini_run(5),
        "fig5_point": _mini_fig5_point(),
        "fig14_rb_on": _mini_fig14(True),
        "fig14_rb_off": _mini_fig14(False),
    }


def _canon(obj):
    # The golden file round-trips tuples through JSON as lists.
    return json.loads(json.dumps(obj, sort_keys=True, default=repr))


def test_golden_trace_hash_matches_pre_refactor_kernel():
    assert _canon(_traced_mini_run(5)) == _golden()["traced_run"]


def test_golden_fig5_point_matches_pre_refactor_kernel():
    assert _canon(_mini_fig5_point()) == _golden()["fig5_point"]


def test_golden_fig14_matches_pre_refactor_kernel():
    golden = _golden()
    assert _canon(_mini_fig14(True)) == golden["fig14_rb_on"]
    assert _canon(_mini_fig14(False)) == golden["fig14_rb_off"]
