"""A failed mkdir / directory rename must not leave a phantom directory.

``ops.mkdir`` (and ``ops.rename`` for a directory) put the new row into the
NN's dir cache inside the transaction body, before it commits, and
``stat``/``exists`` resolve directories from that cache without a read.  If
the attempt is then abandoned for good, the entry has to come back out —
otherwise the NN keeps answering for a directory no NDB fragment holds,
until the entry's TTL.
"""

from functools import partial

import pytest

from repro.errors import FileNotFoundFsError, TransactionAbortedError
from repro.hopsfs.groupcommit import AsyncCommitConfig
from repro.hopsfs.metadata import INODES_TABLE
from repro.ndb.datanode import NdbDatanode

from .conftest import make_fs, run


def _fail_next_commit(monkeypatch):
    """Arm a one-shot, non-retryable failure of the next inode-writing commit."""
    armed = [True]
    real_commit = NdbDatanode._HANDLERS["tc_commit"]

    def tc_commit(self, msg):
        txid = msg.payload.txid
        txn = self.txns.get(txid)
        # Leader election commits too; only a namespace mutation is failed.
        if not armed[0] or txn is None or not any(
            op.table == INODES_TABLE for op in txn.ops.values()
        ):
            return real_commit(self, msg)
        return inject(self, msg)

    def inject(self, msg):
        armed[0] = False
        self.tc_pool.call(self.costs.tc_step, partial(abort, self), msg)

    def abort(self, msg):
        txid = msg.payload.txid
        self._abort_cleanup(self.txns[txid])
        self._drop_txn(txid)
        self._done(msg, TransactionAbortedError("injected", retryable=False), ok=False)

    monkeypatch.setattr(
        NdbDatanode, "_HANDLERS", {**NdbDatanode._HANDLERS, "tc_commit": tc_commit}
    )
    return armed


def _stored(fs, parent_id, name):
    return [
        dn.addr for dn in fs.ndb.datanodes.values()
        if dn.store.lookup(INODES_TABLE, (parent_id, name))[0]
    ]


def _assert_absent(fs, client, path, name):
    def probe():
        assert (yield from client.exists(path)) is False
        with pytest.raises(FileNotFoundFsError):
            yield from client.stat(path)

    run(fs, probe())
    assert _stored(fs, 1, name) == []
    assert all(nn.dir_cache.entry((1, name)) is None for nn in fs.namenodes)


def test_failed_mkdir_leaves_no_phantom(monkeypatch):
    fs = make_fs(num_namenodes=1)
    client = fs.client()
    armed = _fail_next_commit(monkeypatch)

    def scenario():
        with pytest.raises(TransactionAbortedError):
            yield from client.mkdir("/ghost")

    run(fs, scenario())
    assert armed == [False]
    _assert_absent(fs, client, "/ghost", "ghost")
    # The name is still free: the retried mkdir goes through and is cached.
    run(fs, client.mkdir("/ghost"))
    assert run(fs, client.exists("/ghost")) is True
    assert len(_stored(fs, 1, "ghost")) >= 1


def test_failed_directory_rename_leaves_no_phantom(monkeypatch):
    fs = make_fs(num_namenodes=1)
    client = fs.client()
    run(fs, client.mkdir("/src"))
    _fail_next_commit(monkeypatch)

    def scenario():
        with pytest.raises(TransactionAbortedError):
            yield from client.rename("/src", "/dst")
        return (yield from client.exists("/src"))

    assert run(fs, scenario()) is True
    _assert_absent(fs, client, "/dst", "dst")


def test_rolled_back_group_batch_undoes_every_member(monkeypatch):
    fs = make_fs(
        num_namenodes=1,
        async_commit=AsyncCommitConfig(linger_ms=2.0, max_batch_ops=16),
    )
    clients = [fs.client() for _ in range(3)]
    _fail_next_commit(monkeypatch)
    for i, client in enumerate(clients):
        fs.env.process(client.mkdir(f"/g{i}"), name=f"mk{i}")
    fs.env.run(until=fs.env.now + 5_000)
    (batch,) = fs.group_ledger.batches.values()
    assert batch.state == "aborted" and len(batch.ops) == 3
    for i in range(3):
        _assert_absent(fs, clients[0], f"/g{i}", f"g{i}")
