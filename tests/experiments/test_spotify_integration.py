"""End-to-end Spotify-mix runs: error rates and AZ-locality sanity."""

import pytest

from repro.experiments import RunConfig, run_point

_CFG = RunConfig(
    clients_per_server=16,
    warmup_ms=8.0,
    window_ms=10.0,
    namespace_top_dirs=2,
    namespace_dirs_per_top=8,
    namespace_files_per_dir=8,
)


def test_spotify_failure_rate_is_low():
    point = run_point("HopsFS-CL (3,3)", 3, config=_CFG, keep_collector=True)
    collector = point.extra["collector"]
    assert collector.completed > 100
    assert collector.failure_rate() < 0.05


def test_spotify_mix_reaches_all_op_types():
    point = run_point("HopsFS (2,1)", 3, config=_CFG, keep_collector=True)
    collector = point.extra["collector"]
    from repro.types import OpType

    assert collector.by_op[OpType.READ_FILE] > 0
    assert collector.by_op[OpType.STAT] > 0
    assert collector.by_op[OpType.LIST_DIR] > 0


def test_cl_reads_are_az_local():
    point = run_point("HopsFS-CL (3,3)", 3, config=_CFG, keep_collector=True)
    stats = point.extra["harness"].deployment.ndb.read_stats
    assert stats.az_local_fraction() > 0.9


def test_vanilla_reads_cross_azs():
    point = run_point("HopsFS (3,3)", 3, config=_CFG, keep_collector=True)
    stats = point.extra["harness"].deployment.ndb.read_stats
    assert stats.az_local_fraction() < 0.7


def test_ceph_cache_hit_rate_is_high():
    point = run_point("CephFS", 3, config=_CFG, keep_collector=True)
    # infer from MDS load: most client ops never reach an MDS
    assert point.mds_requests_s < 0.6 * point.throughput_ops_s
