"""End-to-end transaction tests against a simulated NDB cluster."""

import pytest

from repro.errors import TransactionAbortedError
from repro.ndb import LockMode, run_transaction

from .conftest import build_harness


def test_write_then_read_committed(harness):
    def scenario():
        txn = harness.api.transaction(hint_table="t", hint_key="k1")
        yield from txn.write("t", "k1", {"v": 1})
        yield from txn.commit()
        txn2 = harness.api.transaction(hint_table="t", hint_key="k1")
        value = yield from txn2.read("t", "k1")
        yield from txn2.commit()
        return value

    assert harness.run(scenario()) == {"v": 1}


def test_read_missing_row_returns_none(harness):
    def scenario():
        txn = harness.api.transaction()
        value = yield from txn.read("t", "nope")
        yield from txn.commit()
        return value

    assert harness.run(scenario()) is None


def test_multi_row_transaction_atomic_visibility(harness):
    def scenario():
        txn = harness.api.transaction(hint_table="t", hint_key="a")
        yield from txn.write("t", "a", 1)
        yield from txn.write("t", "b", 2)
        yield from txn.write("t", "c", 3)
        yield from txn.commit()
        txn2 = harness.api.transaction()
        values = []
        for key in ("a", "b", "c"):
            value = yield from txn2.read("t", key)
            values.append(value)
        yield from txn2.commit()
        return values

    assert harness.run(scenario()) == [1, 2, 3]


def test_delete_removes_row(harness):
    def scenario():
        txn = harness.api.transaction()
        yield from txn.write("t", "k", "v")
        yield from txn.commit()
        txn = harness.api.transaction()
        yield from txn.delete("t", "k")
        yield from txn.commit()
        txn = harness.api.transaction()
        value = yield from txn.read("t", "k")
        yield from txn.commit()
        return value

    assert harness.run(scenario()) is None


def test_update_overwrites(harness):
    def scenario():
        for v in (1, 2, 3):
            txn = harness.api.transaction()
            yield from txn.write("t", "k", v)
            yield from txn.commit()
        txn = harness.api.transaction()
        value = yield from txn.read("t", "k")
        yield from txn.commit()
        return value

    assert harness.run(scenario()) == 3


def test_abort_discards_writes(harness):
    def scenario():
        txn = harness.api.transaction()
        yield from txn.write("t", "k", "dirty")
        yield from txn.abort()
        txn = harness.api.transaction()
        value = yield from txn.read("t", "k")
        yield from txn.commit()
        return value

    assert harness.run(scenario()) is None


def test_abort_releases_locks(harness):
    def scenario():
        txn = harness.api.transaction()
        yield from txn.write("t", "k", "dirty")
        yield from txn.abort()
        # A second writer must not block.
        txn2 = harness.api.transaction()
        yield from txn2.write("t", "k", "clean")
        yield from txn2.commit()
        txn3 = harness.api.transaction()
        value = yield from txn3.read("t", "k", lock=LockMode.SHARED)
        yield from txn3.commit()
        return value

    assert harness.run(scenario()) == "clean"


def test_locked_read_sees_own_uncommitted_write(harness):
    def scenario():
        txn = harness.api.transaction()
        yield from txn.write("t", "k", "mine")
        value = yield from txn.read("t", "k", lock=LockMode.EXCLUSIVE)
        yield from txn.commit()
        return value

    assert harness.run(scenario()) == "mine"


def test_exclusive_lock_serializes_writers(harness):
    """Two read-modify-write transactions on one row never lose an update."""
    env = harness.env
    results = []

    def incrementer(tag):
        txn = harness.api.transaction(hint_table="t", hint_key="counter")
        value = yield from txn.read("t", "counter", lock=LockMode.EXCLUSIVE)
        yield env.timeout(1.0)  # widen the race window
        yield from txn.write("t", "counter", (value or 0) + 1)
        yield from txn.commit()
        results.append(tag)

    def scenario():
        txn = harness.api.transaction()
        yield from txn.write("t", "counter", 0)
        yield from txn.commit()
        p1 = env.process(incrementer("a"))
        p2 = env.process(incrementer("b"))
        yield p1
        yield p2
        txn = harness.api.transaction()
        value = yield from txn.read("t", "counter", lock=LockMode.SHARED)
        yield from txn.commit()
        return value

    assert harness.run(scenario()) == 2


def test_scan_returns_partition_rows(harness):
    def scenario():
        txn = harness.api.transaction()
        for i in range(5):
            yield from txn.write("t", f"child{i}", i, partition_key="dir1")
        yield from txn.write("t", "other", 99, partition_key="dir2")
        yield from txn.commit()
        txn = harness.api.transaction(hint_table="t", hint_key="dir1")
        rows = yield from txn.scan("t", "dir1")
        yield from txn.commit()
        return rows

    rows = harness.run(scenario())
    assert len(rows) == 5
    assert {pk for pk, _v in rows} == {f"child{i}" for i in range(5)}


def test_run_transaction_commits(harness):
    def body(txn):
        yield from txn.write("t", "k", 42)
        return "done"

    def scenario():
        result = yield from run_transaction(harness.api, body, hint_table="t", hint_key="k")
        txn = harness.api.transaction()
        value = yield from txn.read("t", "k")
        yield from txn.commit()
        return result, value

    assert harness.run(scenario()) == ("done", 42)


def test_run_transaction_retries_on_lock_timeout():
    harness = build_harness(deadlock_timeout_ms=20.0)
    env = harness.env
    attempts = []

    def blocker():
        txn = harness.api.transaction()
        yield from txn.write("t", "hot", "held")
        yield env.timeout(60)  # hold the X lock past the deadlock timeout
        yield from txn.commit()

    def body(txn):
        attempts.append(env.now)
        yield from txn.write("t", "hot", "second")

    def scenario():
        blocking = env.process(blocker())
        yield env.timeout(1)
        result = yield from run_transaction(harness.api, body, hint_table="t", hint_key="hot")
        yield blocking
        return result

    harness.run(scenario())
    assert len(attempts) >= 2  # first attempt timed out, retry succeeded


def test_run_transaction_propagates_application_errors(harness):
    class AppError(Exception):
        pass

    def body(txn):
        yield from txn.write("t", "k", 1)
        raise AppError("no")

    def scenario():
        with pytest.raises(AppError):
            yield from run_transaction(harness.api, body)
        # the aborted write must not be visible
        txn = harness.api.transaction()
        value = yield from txn.read("t", "k")
        yield from txn.commit()
        return value

    assert harness.run(scenario()) is None


def test_transactions_use_az_local_tc_when_aware():
    harness = build_harness(az_aware=True, client_az=2)
    topo = harness.network.topology
    seen_azs = set()
    for _ in range(20):
        txn = harness.api.transaction()  # no hint: proximity-based choice
        seen_azs.add(topo.az_of(txn.tc))
    assert seen_azs == {2}


def test_transactions_ignore_az_without_awareness():
    harness = build_harness(az_aware=False, client_az=2)
    topo = harness.network.topology
    seen_azs = set()
    for _ in range(40):
        txn = harness.api.transaction()
        seen_azs.add(topo.az_of(txn.tc))
    assert 1 in seen_azs  # random selection crosses AZs


def test_read_backup_commit_acks_after_all_replicas(harness):
    """With RB on, a committed write is immediately visible on backups."""
    cluster = harness.cluster

    def scenario():
        txn = harness.api.transaction(hint_table="t", hint_key="rb")
        yield from txn.write("t", "rb", "visible")
        yield from txn.commit()
        # At ACK time every replica (primary + backups) must have applied.
        partition = cluster.partition_map.partition_of("rb")
        replicas = cluster.partition_map.replicas(partition)
        values = [
            cluster.datanodes[node].store.read("t", "rb") for node in replicas.all
        ]
        return values

    assert harness.run(scenario()) == ["visible", "visible"]


def test_plain_table_backup_may_lag_at_ack():
    """Without RB, the ACK races the Complete: reads are routed to primary."""
    harness = build_harness(read_backup=False)
    cluster = harness.cluster

    def scenario():
        txn = harness.api.transaction(hint_table="plain", hint_key="k")
        yield from txn.write("plain", "k", "new")
        yield from txn.commit()
        partition = cluster.partition_map.partition_of("k")
        replicas = cluster.partition_map.replicas(partition)
        primary_value = cluster.datanodes[replicas.primary].store.read("plain", "k")
        backup_value = cluster.datanodes[replicas.backups[0]].store.read("plain", "k")
        return primary_value, backup_value

    primary_value, backup_value = harness.run(scenario())
    assert primary_value == "new"
    assert backup_value is None  # Complete has not landed yet — the paper's window


def test_fully_replicated_row_on_every_datanode():
    harness = build_harness(fully_replicated_tables=("fr",), num_datanodes=6, replication=2, azs=(1, 2, 3))

    def scenario():
        txn = harness.api.transaction(hint_table="fr", hint_key="k")
        yield from txn.write("fr", "k", "everywhere")
        yield from txn.commit()
        return [dn.store.read("fr", "k") for dn in harness.cluster.datanodes.values()]

    assert harness.run(scenario()) == ["everywhere"] * 6


def _replica_rows(harness, table, pk):
    """``(found, value)`` of ``(table, pk)`` on every datanode storing it."""
    cluster = harness.cluster
    partition = cluster.partition_map.partition_of(pk)
    chain = cluster.partition_map.replicas(partition, False).chain
    return [cluster.datanodes[addr].store.lookup(table, pk) for addr in chain]


@pytest.mark.parametrize("table", ["t", "plain"])
@pytest.mark.parametrize("steps, expected", [
    ((("write", 1), ("delete", None)), (False, None)),
    ((("write", 1), ("write", 2)), (True, 2)),
    ((("delete", None), ("write", 3), ("write", 4)), (True, 4)),
])
def test_a_key_written_twice_in_one_transaction_commits_its_last_value(
        harness, table, steps, expected):
    def scenario():
        txn = harness.api.transaction()
        yield from txn.write(table, "k", 0)
        yield from txn.commit()
        txn = harness.api.transaction()
        for step, value in steps:
            if step == "write":
                yield from txn.write(table, "k", value)
            else:
                yield from txn.delete(table, "k")
        yield from txn.write(table, "other", "x")
        yield from txn.commit()
        txn = harness.api.transaction()
        seen = yield from txn.read(table, "k")
        yield from txn.commit()
        return seen

    assert harness.run(scenario()) == expected[1]
    harness.env.run(until=harness.env.now + 50)  # the Completes land everywhere
    rows = _replica_rows(harness, table, "k")
    assert len(rows) == harness.cluster.config.replication
    assert rows == [expected] * len(rows)
    assert _replica_rows(harness, table, "other") == [(True, "x")] * len(rows)
    for dn in harness.cluster.datanodes.values():
        assert dn.store.prepared_count() == 0 and not dn.locks._rows
