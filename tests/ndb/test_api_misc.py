"""NDB client API misuse and retry-path coverage."""

import pytest

from repro.errors import ConfigError, NdbError, TransactionAbortedError
from repro.ndb import run_transaction

from .conftest import build_harness


def test_op_after_commit_rejected(harness):
    def scenario():
        txn = harness.api.transaction()
        yield from txn.write("t", "k", 1)
        yield from txn.commit()
        with pytest.raises(NdbError):
            yield from txn.read("t", "k")
        return True

    assert harness.run(scenario())


def test_double_abort_is_idempotent(harness):
    def scenario():
        txn = harness.api.transaction()
        yield from txn.write("t", "k", 1)
        yield from txn.abort()
        yield from txn.abort()  # no-op
        return True

    assert harness.run(scenario())


def test_commit_of_empty_transaction(harness):
    def scenario():
        txn = harness.api.transaction()
        yield from txn.commit()
        return True

    assert harness.run(scenario())


def test_run_transaction_gives_up_after_max_retries():
    harness = build_harness(deadlock_timeout_ms=10.0)
    env = harness.env

    def blocker():
        txn = harness.api.transaction()
        yield from txn.write("t", "hot", 1)
        yield env.timeout(10_000)  # hold the lock essentially forever
        yield from txn.commit()

    def body(txn):
        yield from txn.write("t", "hot", 2)

    def scenario():
        env.process(blocker())
        yield env.timeout(1)
        with pytest.raises(TransactionAbortedError):
            yield from run_transaction(harness.api, body, hint_table="t", hint_key="hot")
        return env.now

    # Every retry spent while the blocker still holds the lock.
    assert harness.run(scenario(), until=60_000) < 10_000


def test_scan_empty_partition(harness):
    def scenario():
        txn = harness.api.transaction()
        rows = yield from txn.scan("t", "empty-partition-key")
        yield from txn.commit()
        return rows

    assert harness.run(scenario()) == []


def test_network_handler_requires_placement():
    harness = build_harness()
    from repro.types import NodeAddress, NodeKind

    ghost = NodeAddress(NodeKind.CLIENT, 404)
    with pytest.raises(ConfigError):
        harness.network.register(ghost, print)


def test_read_stats_accumulate_across_transactions(harness):
    def scenario():
        txn = harness.api.transaction()
        yield from txn.write("t", "k", 1)
        yield from txn.commit()
        before = harness.cluster.read_stats.total_reads()
        for _ in range(4):
            txn = harness.api.transaction(hint_table="t", hint_key="k")
            yield from txn.read("t", "k")
            yield from txn.commit()
        return harness.cluster.read_stats.total_reads() - before

    assert harness.run(scenario()) == 4
