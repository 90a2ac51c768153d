"""The state a backup holds between ``Committed`` and ``Complete``.

Root cause of the two chaos cells that were red on ``hopsfs-3-3``
(``gray-degraded-link``, ``async-commit-crash``: ``ndbd2`` and ``ndbd4``
each "holding one stale prepared row and one stale row lock").  Nothing
was orphaned.  On a table without Read Backup the TC acks the client at
``Committed`` (PAPER.md Fig. 2, message 10), sends ``Complete`` to the
backups and forgets the transaction in the same step; until that message
has crossed the wire and the LDM has applied it, every backup of the chain
still holds its prepared version and its row lock, and no TC has a record
of the owner.  ``no-stuck-state`` asked the TCs who is live, so a snapshot
taken inside that hop — the chaos runner's falls wherever the drain ends,
and the leader election commits a ``leader`` row every period — read the
backups' state as stale.  Any commit on such a table opens the window,
faults or none; only the AZ-unaware setups run without Read Backup, and
with R=3 two backups show it at once.

The invariant now also counts as in flight what a backup is completing:
commit evidence not older than the inactivity timeout whose TC is running.
A ``Complete`` that never arrives still turns red once that time is up.
"""

from types import SimpleNamespace

from repro.chaos.invariants import no_stuck_state

from .conftest import build_harness

_TIMEOUT_MS = 50.0


def _commit_one_row(read_backup, lose_complete=False):
    """One single-row transaction on the AZ-unaware R=3 chain; returns at
    the instant the client holds the commit ack."""
    harness = build_harness(
        num_datanodes=3, replication=3, azs=(1, 2, 3), az_aware=False,
        read_backup=read_backup, inactive_timeout_ms=_TIMEOUT_MS,
    )
    if lose_complete:
        network = harness.network
        deliver = network._deliver

        def lossy(message):
            if message.kind != "complete":
                deliver(message)

        network._deliver = network._deliver_cb = lossy
    table = "t" if read_backup else "plain"

    def scenario():
        txn = harness.api.transaction(hint_table=table, hint_key="row")
        yield from txn.write(table, "row", "v")
        yield from txn.commit()

    harness.run(scenario())
    return harness, SimpleNamespace(ndb=harness.cluster, env=harness.env)


def _backup_state(cluster):
    """(datanode, prepared rows, locked rows) of every node holding either."""
    held = []
    for dn in cluster.datanodes.values():
        prepared = len(list(dn.store.iter_prepared()))
        locked = len(dn.locks.active_row_txids())
        if prepared or locked:
            held.append((str(dn.addr), prepared, locked))
    return held


def test_acked_commit_leaves_both_backups_completing():
    harness, fs = _commit_one_row(read_backup=False)
    cluster = harness.cluster
    # Acked and forgotten by the TC, yet both backups still hold the row.
    assert not cluster.registered_txids()
    assert all(not dn.txns for dn in cluster.datanodes.values())
    held = _backup_state(cluster)
    assert [(prepared, locked) for _addr, prepared, locked in held] == [(1, 1), (1, 1)]
    # In flight, not stuck: the Completes are on the wire.
    verdict = no_stuck_state(fs)
    assert verdict.ok, verdict.detail
    harness.env.run(until=harness.env.now + 5.0)
    assert _backup_state(cluster) == []
    assert no_stuck_state(fs).ok


def test_read_backup_acks_after_completed_so_nothing_is_held():
    harness, fs = _commit_one_row(read_backup=True)
    assert _backup_state(harness.cluster) == []
    assert no_stuck_state(fs).ok


def test_a_complete_that_never_arrives_is_stuck_once_the_timeout_passes():
    harness, fs = _commit_one_row(read_backup=False, lose_complete=True)
    assert no_stuck_state(fs).ok  # indistinguishable from in flight, so far
    harness.env.run(until=harness.env.now + _TIMEOUT_MS + 1.0)
    assert len(_backup_state(harness.cluster)) == 2
    verdict = no_stuck_state(fs)
    assert not verdict.ok
    assert "stale prepared" in verdict.detail and "stale locked" in verdict.detail


def test_completing_state_of_a_dead_tc_is_not_in_flight():
    """With the TC gone nobody will send the Complete; until the take-over
    settles the transaction the backups' state is reported."""
    harness, fs = _commit_one_row(read_backup=False, lose_complete=True)
    cluster = harness.cluster
    (tc_addr,) = {tc for dn in cluster.datanodes.values() for _txid, tc, _at in dn.completing()}
    cluster.datanodes[tc_addr].shutdown("crashed")
    assert not no_stuck_state(fs).ok
