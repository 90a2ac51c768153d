"""Take-over keeps a backup's commit evidence while the backup holds the row.

A transaction read-locks a row on node B and writes a row whose chain is
(A primary, B backup), coordinated by C.  At the commit point C sends the
ChainCommit and the release of the read lock to B in the same step; B
records the ChainCommit's pass as commit evidence and releases the read
lock right after.  The primary A applies the row, and C dies before any
Complete reaches B.  B still holds the prepared row and its write lock, so
the release must not drop the evidence: the take-over rolls the
transaction forward on every replica, and B ends with the row A has.
"""

from repro.ndb.client import NdbTransaction
from repro.ndb.schema import LockMode

from .conftest import build_harness

_TABLE = "plain"


def _key_with_primary(cluster, primary, backup):
    """A partition key of ``_TABLE`` whose chain is ``(primary, backup)``."""
    pmap = cluster.partition_map
    for i in range(1000):
        key = f"k{i}"
        if pmap.replicas_for_key(key).chain == (primary, backup):
            return key
    raise AssertionError("no such key")


def test_a_read_lock_release_beside_the_commit_pass_keeps_the_evidence():
    harness = build_harness(num_datanodes=4, replication=2, azs=(1, 2), az_aware=False)
    cluster, network = harness.cluster, harness.network
    (a, b), (c, _d) = cluster.partition_map.node_groups
    written = _key_with_primary(cluster, a, b)
    read = _key_with_primary(cluster, b, a)

    # The TC dies before any Complete leaves it.
    deliver = network._deliver

    def no_complete(message):
        if message.kind != "complete":
            deliver(message)

    network._deliver = network._deliver_cb = no_complete
    node_a, node_b = cluster.datanodes[a], cluster.datanodes[b]
    released_with_evidence = []
    release = node_b._release_locks

    def watched(msg):
        if msg.keys is not None:  # the read lock's release
            released_with_evidence.append(node_b.has_commit_evidence(msg.txid))
        release(msg)

    node_b._release_locks = watched

    def scenario():
        txn = NdbTransaction(harness.api, c)
        yield from txn.read(_TABLE, read, lock=LockMode.SHARED)
        yield from txn.write(_TABLE, written, "v")
        yield from txn.commit()
        return txn.txid

    txid = harness.run(scenario())
    # The read lock went after the commit pass, while B still holds the row.
    assert released_with_evidence == [True]
    assert node_a.store.read(_TABLE, written) == "v"
    assert node_b.locks.holds_any(txid)
    assert node_b.has_commit_evidence(txid)

    cluster.crash_datanode(c, detect_now=True)
    assert node_a.store.read(_TABLE, written) == "v"
    assert node_b.store.read(_TABLE, written) == "v"  # rolled forward, not back
    assert not node_b.locks.holds_any(txid)
