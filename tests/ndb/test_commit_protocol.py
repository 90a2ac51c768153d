"""Message-level tests of the Fig. 2 commit protocol.

Counts the protocol messages on the wire for a single-row write and
verifies the paper's delayed-ACK change: for Read Backup tables the client
ACK waits for every backup's Completed (message 14 instead of 10).
"""

import pytest

from repro.net.network import Message, Network

from .conftest import build_harness


class _Tap:
    """Records every message the network delivers."""

    def __init__(self, network: Network):
        self.network = network
        self.log: list[tuple[float, str, str, str]] = []
        original = network._deliver

        def tapped(message: Message):
            self.log.append(
                (network.env.now, message.kind, str(message.src), str(message.dst))
            )
            original(message)

        # Single deliveries go through the bound method cached at
        # construction; batches look `_deliver` up per message.
        network._deliver = network._deliver_cb = tapped

    def kinds(self) -> list[str]:
        return [k for _t, k, _s, _d in self.log]


def _run_single_write(read_backup: bool):
    harness = build_harness(read_backup=read_backup, heartbeats=False)
    tap = _Tap(harness.network)
    table = "t" if read_backup else "plain"

    def scenario():
        txn = harness.api.transaction(hint_table=table, hint_key="row")
        yield from txn.write(table, "row", "v")
        yield from txn.commit()
        # Drain: the fire-and-forget Complete may still be in flight.
        yield harness.env.timeout(5.0)
        return harness.env.now

    harness.run(scenario())
    return harness, tap


def test_prepare_chain_order_primary_first():
    harness, tap = _run_single_write(read_backup=True)
    kinds = tap.kinds()
    # Chain: tc_write -> chain_prepare(s) -> prepared -> tc_commit ->
    # chain_commit -> committed -> complete -> completed -> reply.
    assert "tc_write" in kinds
    assert "prepared" in kinds
    assert kinds.index("prepared") > kinds.index("tc_write")
    assert "committed" in kinds
    assert kinds.index("committed") > kinds.index("prepared")


def test_read_backup_ack_after_completed():
    """RB table: the client ACK (commit reply) follows all Completed."""
    harness, tap = _run_single_write(read_backup=True)
    events = tap.log
    completed_times = [t for t, k, _s, _d in events if k == "completed"]
    # the commit reply is the last tc_commit-kind delivery (the RPC reply)
    commit_replies = [t for t, k, _s, _d in events if k == "tc_commit"]
    ack_time = commit_replies[-1]
    assert completed_times, "no Completed messages seen"
    assert ack_time > max(completed_times)


def test_plain_table_ack_before_complete_lands():
    """Without RB the ACK races the Complete (the paper's stale window)."""
    harness, tap = _run_single_write(read_backup=False)
    events = tap.log
    complete_times = [t for t, k, _s, _d in events if k == "complete"]
    commit_replies = [t for t, k, _s, _d in events if k == "tc_commit"]
    ack_time = commit_replies[-1]
    assert complete_times
    # The Complete is delivered to backups after (or at) the client ACK:
    # NDB sends it in parallel and does not wait.
    assert ack_time <= max(complete_times) + 1e-9


def test_no_completed_messages_without_read_backup():
    harness, tap = _run_single_write(read_backup=False)
    assert "completed" not in tap.kinds()


def test_message_count_scales_with_replication():
    """R=3 writes exchange more chain messages than R=2."""

    def chain_messages(replication, datanodes):
        harness = build_harness(
            num_datanodes=datanodes, replication=replication, azs=(1, 2), heartbeats=False
        )
        tap = _Tap(harness.network)

        def scenario():
            txn = harness.api.transaction(hint_table="t", hint_key="k")
            yield from txn.write("t", "k", 1)
            yield from txn.commit()

        harness.run(scenario())
        kinds = tap.kinds()
        return sum(kinds.count(k) for k in ("chain_prepare", "chain_commit", "complete", "completed"))

    assert chain_messages(3, 6) > chain_messages(2, 6)


def test_redo_log_written_on_commit():
    harness, _tap = _run_single_write(read_backup=True)
    total_redo = sum(dn.disk.bytes_written for dn in harness.cluster.datanodes.values())
    # one row applied on primary + backup => two redo appends
    assert total_redo == 2 * harness.cluster.config.costs.redo_bytes_per_write
