"""NDB node recovery: a failed datanode rejoins and serves again."""

import pytest

from repro.ndb import run_transaction

from .conftest import build_harness


def test_restart_copies_data_and_rejoins():
    harness = build_harness()
    cluster = harness.cluster
    env = harness.env

    def scenario():
        txn = harness.api.transaction(hint_table="t", hint_key="k")
        yield from txn.write("t", "k", "before-crash")
        yield from txn.commit()
        victim = cluster.partition_map.replicas_for_key("k").primary
        cluster.crash_datanode(victim, detect_now=True)

        # Write while the node is down: it must catch up on rejoin.
        def body(txn):
            yield from txn.write("t", "k2", "while-down")

        yield from run_transaction(harness.api, body, hint_table="t", hint_key="k2")

        copied = yield from cluster.restart_datanode(victim)
        assert copied > 0
        assert cluster.partition_map.is_up(victim)
        # The rejoined node's store has both rows (fragment copy).
        store = cluster.datanodes[victim].store
        return store.read("t", "k"), store.read("t", "k2")

    k, k2 = harness.run(scenario())
    assert k == "before-crash"
    # k2 present iff its partition lives in the victim's node group
    victim_rows = k2
    assert victim_rows in ("while-down", None)


def test_recovery_copies_from_a_running_member_not_a_crashed_one():
    """A group member that crashed but is not yet declared failed is still
    up in the partition map; its store may have missed a commit, so node
    recovery copies from a member that is up and running."""
    harness = build_harness(num_datanodes=6, replication=3, azs=(1, 2, 3))
    cluster = harness.cluster
    first, crashed, running = cluster.partition_map.node_groups[0]
    assert first.index == 1  # one node group: ndbd1, ndbd3, ndbd5

    def scenario():
        cluster.crash_datanode(first, detect_now=True)
        cluster.crash_datanode(crashed)  # not detected: still up
        assert cluster.partition_map.is_up(crashed)
        # A commit the crashed member missed.
        cluster.datanodes[running].store.load("t", "marker", "p", "committed")
        copied = yield from cluster.restart_datanode(first)
        return copied, cluster.datanodes[first].store.read("t", "marker")

    assert harness.run(scenario()) == (1, "committed")


def test_recovery_with_the_whole_group_down_restores_its_own_fragments():
    """No member of the group is running, so there is no live copy: the
    restarted node restores what it held (NDB's system restart)."""
    harness = build_harness()
    cluster = harness.cluster
    first, peer = cluster.partition_map.replicas_for_key("k").all

    def scenario():
        txn = harness.api.transaction(hint_table="t", hint_key="k")
        yield from txn.write("t", "k", "durable")
        yield from txn.commit()
        cluster.crash_datanode(first)
        cluster.crash_datanode(peer)
        copied = yield from cluster.restart_datanode(first)
        return copied, cluster.datanodes[first].store.read("t", "k")

    assert harness.run(scenario()) == (1, "durable")


def test_rejoined_node_serves_transactions():
    harness = build_harness()
    cluster = harness.cluster

    def scenario():
        txn = harness.api.transaction(hint_table="t", hint_key="k")
        yield from txn.write("t", "k", 1)
        yield from txn.commit()
        victim = cluster.partition_map.replicas_for_key("k").primary
        cluster.crash_datanode(victim, detect_now=True)
        yield from cluster.restart_datanode(victim)

        def body(txn):
            yield from txn.write("t", "k", 2)

        yield from run_transaction(harness.api, body, hint_table="t", hint_key="k")
        # the rejoined node participates in the new write's replica chain
        replicas = cluster.partition_map.replicas_for_key("k")
        assert victim in replicas.all
        txn3 = harness.api.transaction(hint_table="t", hint_key="k")
        value = yield from txn3.read("t", "k")
        yield from txn3.commit()
        return value, cluster.datanodes[victim].store.read("t", "k")

    value, on_victim = harness.run(scenario())
    assert value == 2
    assert on_victim == 2


def test_restart_running_node_is_noop():
    harness = build_harness()
    cluster = harness.cluster

    def scenario():
        node = next(iter(cluster.datanodes))
        result = cluster.restart_datanode(node)
        # generator returns immediately (node already running)
        assert result is None or not cluster.datanodes[node].running is False
        yield harness.env.timeout(0)
        return True

    assert harness.run(scenario())


def test_recovery_restores_cluster_viability():
    """Losing a whole group kills the cluster; this needs full restart,
    but losing R-1 nodes and restarting them keeps everything alive."""
    harness = build_harness(num_datanodes=6, replication=3, azs=(1, 2, 3))
    cluster = harness.cluster

    def scenario():
        group = cluster.partition_map.node_groups[0]
        for node in group[:2]:  # R-1 failures in one group
            cluster.crash_datanode(node, detect_now=True)
        assert cluster.is_operational()
        for node in group[:2]:
            yield from cluster.restart_datanode(node)
        return all(cluster.partition_map.is_up(n) for n in group)

    assert harness.run(scenario())


# --- restart must not double the node's processes ---------------------------
# A crashed datanode's loops exit lazily, at their next wake-up; a restart
# that beats the wake-up used to start a second copy of each beside them.


def _crash_then_restart(harness, victim, gap_ms, cycles=1):
    def scenario():
        for _ in range(cycles):
            yield harness.env.timeout(100.0)
            harness.cluster.crash_datanode(victim)
            yield harness.env.timeout(gap_ms)
            yield from harness.cluster.restart_datanode(victim)

    harness.run(scenario())


def test_restart_cycles_leave_one_handler():
    harness = build_harness()
    victim = next(iter(harness.cluster.datanodes))
    handlers = harness.network._handlers
    addresses = set(handlers)
    _crash_then_restart(harness, victim, gap_ms=50.0, cycles=3)
    harness.env.run(until=harness.env.now + 1_000)
    assert set(handlers) == addresses
    assert handlers[victim] == harness.cluster.datanodes[victim]._on_message


def test_restart_inside_a_heartbeat_interval_keeps_one_heartbeat_per_interval():
    harness = build_harness(heartbeats=True)
    cluster = harness.cluster
    interval = cluster.config.heartbeat_interval_ms
    victim, peer = list(cluster.datanodes)[:2]
    _crash_then_restart(harness, victim, gap_ms=1.0)

    sent = {victim: 0, peer: 0}
    send = harness.network.send

    def counting_send(message):
        if message.kind == "heartbeat" and message.src in sent:
            sent[message.src] += 1
        send(message)

    harness.network.send = counting_send
    start = harness.env.now + interval / 2
    harness.env.run(until=start)
    sent[victim] = sent[peer] = 0
    harness.env.run(until=start + 100 * interval)
    assert sent == {victim: 100, peer: 100}


def test_restart_inside_a_checkpoint_interval_keeps_one_checkpoint_per_interval():
    harness = build_harness()
    config = harness.cluster.config
    victim = next(iter(harness.cluster.datanodes))
    disk = harness.cluster.datanodes[victim].disk
    # 160 ms is the chaos scenarios' outage; the checkpoint loop sleeps 2 s.
    assert 160.0 < config.global_checkpoint_interval_ms
    _crash_then_restart(harness, victim, gap_ms=160.0)
    harness.env.run(until=harness.env.now + config.global_checkpoint_interval_ms / 2)
    before = disk.bytes_written
    harness.env.run(until=harness.env.now + 10 * config.global_checkpoint_interval_ms)
    assert disk.bytes_written - before == 10 * config.checkpoint_bytes


def test_a_row_committed_during_the_recovery_copy_is_on_the_node_at_its_up_mark():
    """ROADMAP item 19: a commit that lands while the restarting node copies
    its fragments reaches only the running members; the node must hold it
    when it is marked up and starts serving, not only after ``_reconcile``."""
    harness = build_harness()
    cluster = harness.cluster
    env = harness.env
    victim = cluster.partition_map.replicas_for_key("k").primary
    # Enough rows that the copy window is several transactions long.
    cluster.preload("t", ((f"bulk{i}", "k", i) for i in range(200)))
    at_up_mark = {}
    mark_up = cluster.partition_map.mark_up

    def recording_mark_up(addr):
        if addr == victim:
            at_up_mark["k"] = cluster.datanodes[victim].store.read("t", "k")
        mark_up(addr)

    cluster.partition_map.mark_up = recording_mark_up

    def body(txn):
        yield from txn.write("t", "k", "during-copy")

    def scenario():
        cluster.crash_datanode(victim, detect_now=True)
        recovery = env.process(cluster.restart_datanode(victim))
        yield env.timeout(0.1)
        yield from run_transaction(harness.api, body, hint_table="t", hint_key="k")
        assert recovery.is_alive  # the commit landed inside the copy window
        yield recovery

    harness.run(scenario())
    assert at_up_mark == {"k": "during-copy"}
