"""Cluster assembly, preload, configuration validation, datanode dispatch."""

import pytest

from repro.errors import ConfigError, NdbError
from repro.ndb import NdbCluster, NdbConfig, Schema, ThreadConfig
from repro.ndb.cluster import az_assignment_for
from repro.ndb.messages import TcAbortReq
from repro.ndb.schema import TOMBSTONE
from repro.net import Network, build_us_west1
from repro.net.network import Message
from repro.sim import Environment, RngRegistry

from .conftest import store_state


def _cluster(num_datanodes=4, replication=2, azs=(1, 2), **kwargs):
    env = Environment()
    network = Network(env, build_us_west1())
    schema = Schema()
    schema.define("t")
    config = NdbConfig(
        num_datanodes=num_datanodes, replication=replication, **kwargs
    )
    return NdbCluster(
        env,
        network,
        config,
        schema,
        datanode_azs=az_assignment_for(num_datanodes, replication, list(azs)),
        mgmt_azs=(3,),
        rng=RngRegistry(0),
    )


def test_config_validation():
    with pytest.raises(ConfigError):
        NdbConfig(num_datanodes=5, replication=2)
    with pytest.raises(ConfigError):
        NdbConfig(replication=0)
    with pytest.raises(ConfigError):
        NdbConfig(num_partitions=0)


def test_thread_config_totals():
    assert ThreadConfig().total == 27
    assert ThreadConfig().counts()["ldm"] == 12


def test_az_assignment_length_checked():
    env = Environment()
    network = Network(env, build_us_west1())
    schema = Schema()
    with pytest.raises(ConfigError):
        NdbCluster(
            env,
            network,
            NdbConfig(num_datanodes=4, replication=2),
            schema,
            datanode_azs=[1, 2],  # wrong length
            rng=RngRegistry(0),
        )


def test_preload_places_rows_on_all_replicas():
    cluster = _cluster()
    count = cluster.preload("t", [(f"k{i}", f"k{i}", i) for i in range(20)])
    assert count == 20
    total_rows = sum(dn.store.row_count("t") for dn in cluster.datanodes.values())
    assert total_rows == 20 * 2  # replication factor 2


def _preload_row_by_row(cluster, table_name, rows):
    """``NdbCluster.preload`` as it was before the bulk pass: one replica
    lookup per row, one ``store.load`` per row per replica."""
    table = cluster.schema.table(table_name)
    for pk, partition_key, value in rows:
        partition = cluster.partition_map.partition_of(partition_key)
        replicas = cluster.partition_map.replicas(partition, table.fully_replicated)
        for node in replicas.all:
            cluster.datanodes[node].store.load(table_name, pk, partition_key, value)


def test_bulk_preload_fills_every_store_as_row_by_row_loads_did():
    bulk, reference = _cluster(num_datanodes=6, replication=3), _cluster(num_datanodes=6, replication=3)
    probe = _cluster(num_datanodes=6, replication=3).partition_map
    # A directory whose rows the same replicas hold as directory 2's.
    twin = next(d for d in range(40, 80)
                if set(probe.replicas_for_key(d).all) == set(probe.replicas_for_key(2).all))
    # Children of 40 directories, pks that change directory (to another
    # replica set, and within one), a rewrite.
    rows = [((i % 40, f"n{i}"), i % 40, i) for i in range(400)]
    rows += [((3, "n3"), 7, "moved"), ((2, "n2"), twin, "moved"), ((5, "n5"), 5, "rewritten")]
    # New keys plus one row an earlier batch stored, moved.
    more = [((i % 40, f"m{i}"), i % 40, i) for i in range(40)] + [((9, "n9"), 11, "again")]
    # A delete of a row that is not there.
    deletes = [((twin + 1, "absent"), twin + 1, TOMBSTONE)]
    for batch in (rows, more, deletes):
        assert bulk.preload("t", batch) == len(batch)
        _preload_row_by_row(reference, "t", batch)
        for addr, dn in bulk.datanodes.items():
            assert store_state(dn.store) == store_state(reference.datanodes[addr].store)
    assert bulk.partition_map._partition_cache == reference.partition_map._partition_cache
    # One key and one row object per loaded row, whatever the replication.
    stores = [dn.store for dn in bulk.datanodes.values()]
    holders = [s._rows[("t", (1, "n1"))] for s in stores if ("t", (1, "n1")) in s._rows]
    assert len(holders) == 3 and all(row is holders[0] for row in holders)


def test_preload_fully_replicated_table_everywhere():
    env = Environment()
    network = Network(env, build_us_west1())
    schema = Schema()
    schema.define("fr", fully_replicated=True)
    cluster = NdbCluster(
        env,
        network,
        NdbConfig(num_datanodes=4, replication=2),
        schema,
        datanode_azs=az_assignment_for(4, 2, [1, 2]),
        rng=RngRegistry(0),
    )
    cluster.preload("fr", [("k", "k", 1)])
    assert all(dn.store.read("fr", "k") == 1 for dn in cluster.datanodes.values())


def test_thread_busy_reports_all_types():
    cluster = _cluster()
    busy = cluster.thread_busy()
    assert set(busy) == {"ldm", "tc", "recv", "send", "rep", "io", "main"}
    ldm_busy, ldm_cores = busy["ldm"]
    assert ldm_cores == 4 * 12  # 4 datanodes x 12 LDM threads


def test_is_operational_lifecycle():
    cluster = _cluster()
    cluster.start(heartbeats=False)
    assert cluster.is_operational()
    group = cluster.partition_map.node_groups[0]
    for node in group:
        cluster.crash_datanode(node, detect_now=True)
    assert not cluster.is_operational()


def test_arbitrator_falls_back_to_next_mgmt():
    env = Environment()
    network = Network(env, build_us_west1())
    schema = Schema()
    schema.define("t")
    cluster = NdbCluster(
        env,
        network,
        NdbConfig(num_datanodes=4, replication=2),
        schema,
        datanode_azs=az_assignment_for(4, 2, [1, 2]),
        mgmt_azs=(3, 1, 2),
        rng=RngRegistry(0),
    )
    cluster.start(heartbeats=False)
    first = cluster.arbitrator()
    assert first is cluster.mgmt_nodes[0]
    first.shutdown()
    assert cluster.arbitrator() is cluster.mgmt_nodes[1]


def test_checkpoint_loop_writes_disk():
    cluster = _cluster(global_checkpoint_interval_ms=10.0)
    cluster.start(heartbeats=False)
    cluster.env.run(until=55)
    for dn in cluster.datanodes.values():
        # 5 checkpoint intervals elapsed
        assert dn.disk.bytes_written >= 5 * cluster.config.checkpoint_bytes


# ------------------------------------------------------------- dispatch
def test_a_message_of_unknown_kind_fails_the_run_after_its_recv(harness):
    env = harness.env
    dn = next(iter(harness.cluster.datanodes.values()))
    harness.network.send(Message(harness.client_addr, dn.addr, "bogus"))
    with pytest.raises(NdbError, match="unknown message kind 'bogus'"):
        env.run(until=env.now + 10)
    assert dn.recv_pool.jobs_done == 1


def test_a_message_whose_recv_ends_after_a_crash_starts_no_handler(harness):
    env = harness.env
    dn = next(iter(harness.cluster.datanodes.values()))
    abort = Message(harness.client_addr, dn.addr, "tc_abort", TcAbortReq(1))
    harness.network.send(abort)
    while dn.recv_pool.in_service == 0:
        env.step()
    dn.shutdown("crash during RECV")
    env.run(until=env.now + 10)
    assert dn.recv_pool.jobs_done == 1 and dn.tc_pool.jobs_done == 0
