"""Every ``NdbTransaction`` op, where its callers observe it.

The ops are plain functions returning the one ``_call`` generator; these
pin what moved with that: results, ``finished``, the ``writes`` each
write or delete records, the finished-transaction error, the unreachable-TC
translation, idempotent ``abort`` and the abort-time undo list.
"""

import inspect

import pytest

from repro.errors import NdbError, TransactionAbortedError
from repro.ndb import LockMode, NdbTransaction
from repro.ndb.schema import TOMBSTONE

from .conftest import build_harness

OPS = {
    "read": lambda txn: txn.read("t", "k"),
    "locked read": lambda txn: txn.read("t", "k", lock=LockMode.EXCLUSIVE),
    "scan": lambda txn: txn.scan("t", "k"),
    "write": lambda txn: txn.write("t", "k", 2),
    "delete": lambda txn: txn.delete("t", "k"),
    "commit": lambda txn: txn.commit(),
}
_ids = pytest.mark.parametrize("op", OPS.values(), ids=OPS.keys())


@pytest.fixture
def harness():
    h = build_harness()

    def seed():
        txn = h.api.transaction()
        yield from txn.write("t", "k", 1)
        yield from txn.commit()

    h.run(seed())
    return h


def test_results(harness):
    def scenario():
        txn = harness.api.transaction()
        assert (yield from txn.read("t", "k")) == 1
        assert (yield from txn.read("t", "missing")) is None
        assert (yield from txn.scan("t", "k")) == [("k", 1)]
        yield from txn.write("t", "new", 2)
        assert (yield from txn.read("t", "new", lock=LockMode.SHARED)) == 2
        yield from txn.delete("t", "k")
        assert (yield from txn.read("t", "k", lock=LockMode.SHARED)) is None
        assert not txn.finished
        yield from txn.commit()
        assert txn.finished
        check = harness.api.transaction()
        return (yield from check.read("t", "k")), (yield from check.read("t", "new"))

    assert harness.run(scenario()) == (None, 2)


def test_writes_are_the_write_requests_sent(harness):
    def scenario():
        txn = harness.api.transaction()
        yield from txn.read("t", "k")
        yield from txn.scan("t", "k")
        assert txn.writes == []
        yield from txn.write("t", "k", 2, partition_key="p")
        yield from txn.delete("t", "other")
        assert [(w.txid, w.table, w.pk, w.partition_key, w.value) for w in txn.writes] == [
            (txn.txid, "t", "k", "p", 2),
            (txn.txid, "t", "other", "other", TOMBSTONE),
        ]
        yield from txn.commit()

    harness.run(scenario())


@_ids
def test_finished_transaction_raises_where_the_op_is_driven(harness, op):
    def scenario():
        txn = harness.api.transaction()
        yield from txn.commit()
        pending = op(txn)  # building the op never raises ...
        with pytest.raises(NdbError, match="already finished"):
            yield from pending  # ... driving it does
        return True

    assert harness.run(scenario())


@_ids
def test_unreachable_tc_is_a_retryable_abort(harness, op):
    def scenario():
        txn = harness.api.transaction()
        yield from txn.read("t", "k")
        harness.cluster.crash_datanode(txn.tc)
        with pytest.raises(TransactionAbortedError) as caught:
            yield from op(txn)
        assert caught.value.retryable
        assert txn.finished  # nothing more to tell a dead TC
        yield from txn.abort()  # returns at once
        return True

    assert harness.run(scenario())


def test_abort_is_idempotent_and_finishes(harness):
    def scenario():
        txn = harness.api.transaction()
        yield from txn.write("t", "k", 5)
        yield from txn.abort()
        assert txn.finished
        sent = harness.network.traffic.messages
        yield from txn.abort()
        assert harness.network.traffic.messages == sent
        check = harness.api.transaction()
        return (yield from check.read("t", "k"))

    assert harness.run(scenario()) == 1


def test_undo_runs_once_on_abort_and_never_after_commit(harness):
    undone = []

    def scenario():
        aborted = harness.api.transaction()
        assert aborted._undo is None  # created lazily
        aborted.on_abort(undone.append, "aborted")
        yield from aborted.abort()
        yield from aborted.abort()
        committed = harness.api.transaction()
        committed.on_abort(undone.append, "committed")
        yield from committed.commit()
        yield from committed.abort()

    harness.run(scenario())
    assert undone == ["aborted"]


def test_undo_runs_when_an_unreachable_tc_already_finished_the_transaction(harness):
    undone = []

    def scenario():
        txn = harness.api.transaction()
        txn.on_abort(undone.append, "undone")
        harness.cluster.crash_datanode(txn.tc)
        with pytest.raises(TransactionAbortedError):
            yield from txn.commit()
        assert txn.finished and undone == []
        yield from txn.abort()

    harness.run(scenario())
    assert undone == ["undone"]


def test_one_call_and_no_op_is_a_generator_function():
    assert inspect.isgeneratorfunction(NdbTransaction._call)
    for name in ("read", "scan", "write", "delete", "commit"):
        assert not inspect.isgeneratorfunction(getattr(NdbTransaction, name)), name
