"""The deployment harness: one builder, two tunings, both surfaces."""

import importlib

import pytest

from repro.errors import ConfigError
from repro.experiments import RunConfig, run_point
from repro.experiments.setups import BENCH, CHAOS, PATHS, SETUPS
from repro.hopsfs import (
    AsyncCommitConfig,
    ElasticConfig,
    GroupCommitter,
    ListingCache,
    ListingCacheConfig,
    RobustConfig,
)
from repro.hopsfs.robust import RobustBounds
from repro.workloads import generate_namespace

_CFG = RunConfig(
    clients_per_server=8,
    warmup_ms=4.0,
    window_ms=8.0,
    namespace_top_dirs=2,
    namespace_dirs_per_top=4,
    namespace_files_per_dir=6,
)
_TUNINGS = {"bench": BENCH, "chaos": CHAOS}
_EVERY_BUILD = [(name, tuning) for name in SETUPS for tuning in _TUNINGS]


def test_hopsfs_report_has_thread_breakdown():
    point = run_point("HopsFS (2,1)", 2, config=_CFG)
    threads = point.resource.ndb_thread_cpu_pct
    assert set(threads) == {"ldm", "tc", "recv", "send", "rep", "io", "main"}
    assert threads["ldm"] > 0
    assert point.resource.window_ms == pytest.approx(8.0)


def test_hopsfs_single_az_has_zero_cross_az_traffic():
    point = run_point("HopsFS (2,1)", 2, config=_CFG)
    assert point.resource.cross_az_mb == 0.0
    assert point.resource.intra_az_mb > 0.0


def test_cephfs_report_storage_is_osd():
    point = run_point("CephFS", 2, config=_CFG)
    # OSDs barely work on a metadata benchmark (Fig. 10a / 12)
    assert point.resource.storage_cpu_pct < 20.0
    # the single-threaded MDS cannot use its 32-core host (Fig. 10b)
    assert point.resource.server_cpu_pct < 20.0


def test_hopsfs_cl_setups_use_read_backup_tables():
    harness = SETUPS["HopsFS-CL (3,3)"].build(1, seed=0)
    schema = harness.deployment.ndb.schema
    assert all(t.read_backup for t in schema.tables())
    vanilla = SETUPS["HopsFS (3,3)"].build(1, seed=0)
    assert not any(t.read_backup for t in vanilla.deployment.ndb.schema.tables())


def test_setup_ndb_layout_matches_paper():
    harness = SETUPS["HopsFS (2,1)"].build(1, seed=0)
    ndb = harness.deployment.ndb
    assert ndb.config.num_datanodes == 12  # Section V-A: 12 NDB datanodes
    assert ndb.config.threads.total == 27  # Table II


def test_cephfs_setup_has_twelve_osds():
    harness = SETUPS["CephFS"].build(1, seed=0)
    assert len(harness.cluster.osds) == 12  # "12 OSD nodes similar to NDB"
    assert harness.cluster.config.osd_replication == 3


def test_tunings_hold_the_values_the_two_builders_hard_coded():
    """A tuning edit moves every pinned schedule: make it a visible diff."""
    rows = [
        # (what, bench, chaos)
        ("ndb", {"num_datanodes": 12},
         {"num_datanodes": 6, "heartbeat_interval_ms": 10.0,
          "deadlock_timeout_ms": 100.0, "inactive_timeout_ms": 120.0}),
        ("hopsfs", {"election_period_ms": 100.0},
         {"election_period_ms": 50.0, "op_cost_read_ms": 0.02,
          "op_cost_mutation_ms": 0.04, "dn_heartbeat_interval_ms": 10.0}),
        ("ceph", {}, {"mds_failover_detect_ms": 20.0}),
        ("block_datanodes_per_az", 0, 2),
        ("heartbeats", False, True),
        ("az_link_bandwidth_bytes_per_ms", 1_800_000.0, None),
    ]
    for what, bench, chaos in rows:
        assert getattr(BENCH, what) == bench, what
        assert getattr(CHAOS, what) == chaos, what
    # ... and they reach the deployment the builder hands back.
    hops = SETUPS["HopsFS-CL (3,3)"].build(1, tuning=CHAOS).deployment
    assert len(hops.ndb.datanodes) == 6 and len(hops.block_datanodes) == 6
    assert hops.config.election_period_ms == 50.0
    assert hops.network.az_link_bandwidth is None
    # Two block datanodes per AZ, but never fewer than the three block replicas.
    assert {
        name: len(spec.build(1, tuning=CHAOS).deployment.block_datanodes)
        for name, spec in SETUPS.items() if spec.kind == "hopsfs"
    } == {
        "HopsFS (2,1)": 3, "HopsFS (3,1)": 3, "HopsFS (2,3)": 4,
        "HopsFS (3,3)": 6, "HopsFS-CL (2,3)": 4, "HopsFS-CL (3,3)": 6,
    }
    ceph = SETUPS["CephFS"].build(1, tuning=CHAOS).cluster
    assert ceph.config.mds_failover_detect_ms == 20.0
    assert SETUPS["CephFS"].build(1).cluster.config.mds_failover_detect_ms == 1000.0


@pytest.mark.parametrize("name,tuning", _EVERY_BUILD)
def test_every_setup_builds_under_both_tunings(name, tuning):
    harness = SETUPS[name].build(2, seed=5, tuning=_TUNINGS[tuning])
    env = harness.env
    assert harness.spec is SETUPS[name] and harness.azs == SETUPS[name].azs
    env.run_process(harness.ready(), until=60_000)

    addrs = harness.managed_addrs()
    assert addrs == sorted(addrs) and len(set(addrs)) == len(addrs)
    assert all(harness.is_running(addr) for addr in addrs)
    # us-west1's three AZs partition them (management nodes sit in all three).
    assert sorted(a for az in (1, 2, 3) for a in harness.addrs_in_az(az)) == addrs
    assert {str(a) for a in addrs} >= set(harness.server_node_ids())

    # One crash -> recover round trip per kind of node the stack manages.
    for addr in {a.kind: a for a in reversed(addrs)}.values():
        harness.crash(addr)
        assert not harness.is_running(addr), addr
        env.run_process(harness.recover(addr), until=env.now + 60_000)
        assert harness.is_running(addr), addr

    az = harness.azs[-1]
    pinned = harness.make_clients(3, az=az)
    assert [harness.network.topology.az_of(c.addr) for c in pinned] == [az] * 3
    if harness.spec.az_aware:
        assert [c.location_domain_id for c in pinned] == [az] * 3
    rotating = harness.make_clients(len(harness.azs))
    assert sorted(harness.network.topology.az_of(c.addr) for c in rotating) == sorted(harness.azs)
    assert harness.clients == pinned + rotating


@pytest.mark.parametrize("tuning", _TUNINGS)
def test_builder_wires_all_four_paths_under_both_tunings(tuning):
    paths = dict(
        robust=RobustConfig(),
        async_commit=AsyncCommitConfig(),
        elastic=ElasticConfig(autoscale=False),
        listing_cache=ListingCacheConfig(),
    )
    assert set(paths) == set(PATHS)
    harness = SETUPS["HopsFS-CL (3,3)"].build(2, tuning=_TUNINGS[tuning], **paths)
    dep = harness.deployment
    for name, value in paths.items():
        assert getattr(dep.config, name) is value
    for nn in dep.namenodes:
        assert nn.max_inflight == paths["robust"].nn_max_inflight
        assert isinstance(nn.committer, GroupCommitter) and nn.committer.ledger is dep.group_ledger
        assert isinstance(nn.listing_cache, ListingCache)
    (client,) = harness.make_clients(1)
    assert isinstance(client.bounds, RobustBounds)
    assert client.membership_refresh_ms == paths["elastic"].membership_refresh_ms
    # CephFS has no such paths and ignores them, as it always has.
    assert SETUPS["CephFS"].build(1, tuning=_TUNINGS[tuning], **paths).cluster


def test_unknown_path_is_rejected_naming_the_valid_ones():
    for name in ("HopsFS-CL (3,3)", "CephFS"):
        with pytest.raises(ConfigError) as err:
            SETUPS[name].build(1, hedging=1)
        assert "hedging" in str(err.value)
        assert all(path in str(err.value) for path in PATHS)


def test_dirpinned_is_pinned_under_the_chaos_tuning_too():
    # The chaos runner's namespace (chaos.scenarios.run_scenario).
    namespace = generate_namespace(num_top_dirs=2, dirs_per_top=6, files_per_dir=6, seed=99)
    tables = {}
    for tuning in _TUNINGS:
        harness = SETUPS["CephFS - DirPinned"].build(3, seed=99, tuning=_TUNINGS[tuning])
        harness.install(namespace)
        tables[tuning] = dict(harness.cluster.partitioner.pin_table)
    assert len(tables["chaos"]) == len(namespace.dirs) == 12
    assert tables["chaos"] == tables["bench"]


@pytest.mark.parametrize("module,name", [
    ("repro.chaos.targets", None),
    ("repro.chaos", "build_chaos_target"),
    ("repro.chaos", "ChaosTarget"),
    ("repro.chaos", "HopsFsTarget"),
    ("repro.chaos", "CephTarget"),
    ("repro.experiments", "build_setup"),
    ("repro.experiments.setups", "HopsFsAdapter"),
    ("repro.experiments.setups", "CephAdapter"),
])
def test_the_two_old_families_are_gone(module, name):
    if name is None:
        with pytest.raises(ImportError):
            importlib.import_module(module)
    else:
        assert not hasattr(importlib.import_module(module), name)
