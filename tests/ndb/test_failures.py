"""NDB failure handling: node crashes, promotions, split-brain arbitration."""

import pytest

from repro.errors import HostUnreachableError, TransactionAbortedError
from repro.ndb import LockMode, run_transaction
from repro.ndb.messages import LdmReadReq, LdmScanReq
from repro.types import NodeAddress, NodeKind

from .conftest import build_harness


def _addr(i):
    return NodeAddress(NodeKind.NDB_DATANODE, i)


def test_crash_promotes_backup_and_reads_survive():
    harness = build_harness()
    cluster = harness.cluster

    def scenario():
        txn = harness.api.transaction(hint_table="t", hint_key="k")
        yield from txn.write("t", "k", "survives")
        yield from txn.commit()
        partition = cluster.partition_map.partition_of("k")
        primary = cluster.partition_map.replicas(partition).primary
        cluster.crash_datanode(primary, detect_now=True)

        def body(txn):
            value = yield from txn.read("t", "k")
            return value

        value = yield from run_transaction(harness.api, body, hint_table="t", hint_key="k")
        return value

    assert harness.run(scenario()) == "survives"
    assert cluster.is_operational()


def test_writes_continue_after_single_node_failure():
    harness = build_harness()
    cluster = harness.cluster

    def scenario():
        cluster.crash_datanode(_addr(1), detect_now=True)

        def body(txn):
            yield from txn.write("t", "after-crash", 1)

        yield from run_transaction(harness.api, body, hint_table="t", hint_key="after-crash")
        txn = harness.api.transaction()
        value = yield from txn.read("t", "after-crash")
        yield from txn.commit()
        return value

    assert harness.run(scenario()) == 1


def test_whole_node_group_failure_brings_cluster_down():
    harness = build_harness()
    cluster = harness.cluster
    group = cluster.partition_map.node_groups[0]

    def scenario():
        for node in group:
            cluster.crash_datanode(node, detect_now=True)
        yield harness.env.timeout(1)
        return cluster.is_operational()

    assert harness.run(scenario()) is False
    # every surviving node was told to shut down
    assert all(not dn.running for dn in cluster.datanodes.values())


def test_inflight_transaction_aborts_when_participant_dies():
    harness = build_harness(deadlock_timeout_ms=500.0)
    cluster = harness.cluster
    env = harness.env

    def scenario():
        txn = harness.api.transaction(hint_table="t", hint_key="k")
        yield from txn.write("t", "k", "v")  # prepared on both replicas
        partition = cluster.partition_map.partition_of("k")
        primary = cluster.partition_map.replicas(partition).primary
        # Kill a chain participant before commit.
        if primary == txn.tc:
            victim = cluster.partition_map.replicas(partition).backups[0]
        else:
            victim = primary
        cluster.crash_datanode(victim, detect_now=True)
        try:
            yield from txn.commit()
        except TransactionAbortedError:
            return "aborted"
        return "committed"

    result = harness.run(scenario())
    # Either outcome is legal depending on timing; the cluster must survive.
    assert result in ("aborted", "committed")
    assert cluster.is_operational()


def test_heartbeats_detect_crash():
    harness = build_harness(heartbeats=True, heartbeat_interval_ms=10.0)
    cluster = harness.cluster

    def scenario():
        yield harness.env.timeout(50)  # let heartbeats flow
        cluster.crash_datanode(_addr(2), detect_now=False)
        yield harness.env.timeout(200)  # detection deadline = 3 * 10ms
        return cluster.partition_map.is_up(_addr(2))

    assert harness.run(scenario()) is False
    assert cluster.is_operational()


def test_orphaned_locks_released_when_tc_dies():
    harness = build_harness()
    cluster = harness.cluster
    env = harness.env

    def scenario():
        txn = harness.api.transaction(hint_table="t", hint_key="k")
        yield from txn.write("t", "k", "v")  # X locks held at replicas
        cluster.crash_datanode(txn.tc, detect_now=True)
        yield env.timeout(1)

        # A new transaction (on a surviving TC) must be able to lock the row.
        def body(txn2):
            yield from txn2.write("t", "k", "recovered")

        yield from run_transaction(harness.api, body, hint_table="t", hint_key="k")
        txn3 = harness.api.transaction()
        value = yield from txn3.read("t", "k")
        yield from txn3.commit()
        return value

    assert harness.run(scenario()) == "recovered"


def test_split_brain_one_side_survives():
    """AZ partition: the side that wins arbitration keeps running."""
    harness = build_harness(
        num_datanodes=4,
        replication=2,
        azs=(2, 3),
        mgmt_azs=(1,),
        heartbeats=True,
        heartbeat_interval_ms=10.0,
    )
    cluster = harness.cluster
    network = harness.network

    def scenario():
        yield harness.env.timeout(50)
        network.partition_azs({2}, {3})
        yield harness.env.timeout(500)
        survivors = {dn.addr for dn in cluster.datanodes.values() if dn.running}
        return survivors

    survivors = harness.run(scenario())
    topo = network.topology
    # Exactly one side survived, and it is AZ-pure.
    assert survivors
    azs = {topo.az_of(a) for a in survivors}
    assert len(azs) == 1
    assert len(survivors) == 2
    arbitrator = cluster.mgmt_nodes[0]
    assert arbitrator.grants >= 1


def test_losing_side_shut_down_by_arbitration():
    harness = build_harness(
        num_datanodes=4,
        replication=2,
        azs=(2, 3),
        mgmt_azs=(1,),
        heartbeats=True,
        heartbeat_interval_ms=10.0,
    )
    cluster = harness.cluster
    network = harness.network

    def scenario():
        yield harness.env.timeout(50)
        network.partition_azs({2}, {3})
        yield harness.env.timeout(500)
        losers = [dn for dn in cluster.datanodes.values() if not dn.running]
        return [dn.shutdown_reason for dn in losers]

    reasons = harness.run(scenario())
    assert reasons and all(r in ("lost arbitration", "declared failed") for r in reasons)


def test_unreachable_arbitrator_shuts_component_down():
    """If a component cannot reach the arbitrator it must not keep running."""
    harness = build_harness(
        num_datanodes=4,
        replication=2,
        azs=(2, 3),
        mgmt_azs=(1,),
        heartbeats=True,
        heartbeat_interval_ms=10.0,
    )
    cluster = harness.cluster
    network = harness.network

    def scenario():
        yield harness.env.timeout(50)
        # AZ3 is cut off from everything, including the arbitrator in AZ1.
        network.partition_azs({1, 2}, {3})
        yield harness.env.timeout(500)
        return {
            dn.addr: dn.running for dn in cluster.datanodes.values()
        }

    running = harness.run(scenario())
    topo = network.topology
    for addr, alive in running.items():
        if topo.az_of(addr) == 3:
            assert not alive
        else:
            assert alive


def test_heal_resets_arbitration_epoch():
    harness = build_harness(
        num_datanodes=4, replication=2, azs=(2, 3), mgmt_azs=(1,), heartbeats=True
    )
    cluster = harness.cluster
    harness.network.partition_azs({2}, {3})
    cluster.heal()
    assert cluster.mgmt_nodes[0].granted_component is None
    assert harness.network.reachable(_addr(1), _addr(3))


def test_abandoned_transaction_reaped():
    """TransactionInactiveTimeout: a dead client's txn is rolled back."""
    harness = build_harness(inactive_timeout_ms=50.0)
    env = harness.env

    def scenario():
        txn = harness.api.transaction(hint_table="t", hint_key="zombie")
        yield from txn.write("t", "zombie", 1)
        # the client "dies": never commits or aborts
        yield env.timeout(200)  # past the inactivity timeout
        prepared = sum(
            dn.store.prepared_count() for dn in harness.cluster.datanodes.values()
        )
        locks = sum(dn.locks.active_rows for dn in harness.cluster.datanodes.values())
        # another writer can now take the row
        txn2 = harness.api.transaction(hint_table="t", hint_key="zombie")
        yield from txn2.write("t", "zombie", 2)
        yield from txn2.commit()
        return prepared, locks, harness.cluster.active_transactions

    prepared, locks, active = harness.run(scenario())
    assert prepared == 0
    assert locks == 0


def test_reaped_transaction_cannot_resurrect():
    """A slow-but-alive client whose txn the reaper rolled back must see
    every later operation fail — not silently re-register at the TC.

    Resurrection is a gray-failure double-apply: the reaper released the
    txn's exclusive locks, so by the time the laggard resumes, another
    transaction may have read-modify-written the same rows.  Real NDB
    answers post-reap operations with "unknown transaction".
    """
    harness = build_harness(inactive_timeout_ms=50.0)
    env = harness.env

    def scenario():
        txn = harness.api.transaction(hint_table="t", hint_key="slow")
        yield from txn.write("t", "slow", 1)
        yield env.timeout(200)  # reaper fires: locks freed, write rolled back
        with pytest.raises(TransactionAbortedError):
            yield from txn.write("t", "slow", 2)

        # Commit alone must not report success for a reaped txn either.
        txn2 = harness.api.transaction(hint_table="t", hint_key="slow")
        yield from txn2.write("t", "slow", 3)
        yield env.timeout(200)
        with pytest.raises(TransactionAbortedError):
            yield from txn2.commit()

        # A fresh transaction proceeds normally over the freed rows.
        txn3 = harness.api.transaction(hint_table="t", hint_key="slow")
        yield from txn3.write("t", "slow", 4)
        yield from txn3.commit()

    harness.run(scenario())


@pytest.mark.parametrize("kind", ["ldm_read", "ldm_scan"])
def test_shutdown_while_an_ldm_job_holds_its_thread_fails_only_the_rpc(kind, monkeypatch):
    """A datanode that goes down after RECV, while the read's or scan's LDM
    job holds its thread, ends the message's chain when the job completes:
    the caller's RPC fails with HostUnreachableError and the run goes on."""
    harness = build_harness()
    env = harness.env
    dn = next(iter(harness.cluster.datanodes.values()))
    ldm = dn._ldm_pool_for(0)
    if kind == "ldm_read":
        req = LdmReadReq(1, "t", "k", "k", 0, LockMode.NONE, 0, 1)
    else:
        req = LdmScanReq(1, "t", "k", 0, 0, 1)
    received = dn._received
    held = []

    def received_then_crash(msg):
        received(msg)  # RECV done: the handler handed the job to an LDM thread
        if msg.kind == kind:
            held.append((ldm.in_service, ldm.jobs_done))
            harness.cluster.crash_datanode(dn.addr)

    monkeypatch.setattr(dn, "_received", received_then_crash)

    def caller():
        try:
            yield harness.network.call(harness.client_addr, dn.addr, kind, req)
        except HostUnreachableError:
            return "unreachable"
        return "replied"

    assert harness.run(caller()) == "unreachable"
    env.run(until=env.now + 100)  # the job completes on a node that is down
    assert held == [(1, 0)] and ldm.jobs_done == 1 and not dn.running
