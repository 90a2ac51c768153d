"""Unit tests of the async group-commit metadata path.

Covers the committer's observable contract: config validation, batching
under a linger window, early acks with a durability horizon, the fsync
barrier, read-your-writes barriers for sync-path reads, per-member error
isolation, pipelined flushes, flush retries (a member's re-run failing
validation or replaying), and ack loss on an NN crash mid-linger.
"""

import random

import pytest

from repro.chaos.invariants import durability_horizon
from repro.errors import ConfigError, FileAlreadyExistsError, FsError, TransactionAbortedError
from repro.hopsfs import RobustConfig
from repro.hopsfs.groupcommit import AsyncCommitConfig, groupable, op_paths
from repro.hopsfs.metadata import INODES_TABLE, RETRY_TABLE
from repro.hopsfs.ops import mkdir
from repro.ndb.client import NdbTransaction, RetryPolicy
from repro.ndb.schema import TOMBSTONE
from repro.types import OpType

from .conftest import make_fs, run

FAST = AsyncCommitConfig(linger_ms=0.5, max_batch_ops=8)


def make_async_fs(async_commit=FAST, num_namenodes=1, **kwargs):
    return make_fs(num_namenodes=num_namenodes, async_commit=async_commit, **kwargs)


# ------------------------------------------------------------------ config
@pytest.mark.parametrize(
    "kwargs",
    [
        {"linger_ms": -0.1},
        {"max_batch_ops": 0},
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ConfigError):
        AsyncCommitConfig(**kwargs)


def test_groupable_excludes_large_creates_and_reads():
    assert groupable(OpType.MKDIR, {})
    assert groupable(OpType.CREATE_FILE, {"data": b"x" * 10})
    assert not groupable(OpType.CREATE_FILE, {"data": b"x" * 10_000_000})
    assert not groupable(OpType.READ_FILE, {})
    assert not groupable(OpType.LIST_DIR, {})


def test_op_paths_cover_rename_both_ends():
    paths = op_paths(OpType.RENAME, {"src": "/a/b", "dst": "/c/d"})
    assert ("a", "b") in paths and ("c", "d") in paths


# ---------------------------------------------------------------- batching
def test_concurrent_mutations_share_a_batch():
    fs = make_async_fs(AsyncCommitConfig(linger_ms=2.0, max_batch_ops=16))
    clients = [fs.client() for _ in range(4)]

    def one(client, path):
        yield from client.mkdir(path)

    for i, client in enumerate(clients):
        fs.env.process(one(client, f"/d{i}"), name=f"mk{i}")
    fs.env.run(until=5_000)

    ledger = fs.group_ledger
    committed = [b for b in ledger.batches.values() if b.state == "committed"]
    assert committed, "nothing committed"
    # Four near-simultaneous disjoint mkdirs ride fewer than four batches.
    assert max(len(b.ops) for b in committed) >= 2
    assert sum(len(b.ops) for b in committed) == 4


def test_full_batch_flushes_before_linger():
    fs = make_async_fs(AsyncCommitConfig(linger_ms=500.0, max_batch_ops=2))
    clients = [fs.client() for _ in range(2)]

    def one(client, path):
        yield from client.mkdir(path)

    for i, client in enumerate(clients):
        fs.env.process(one(client, f"/d{i}"), name=f"mk{i}")
    # Far less than the 500ms linger: only the size trigger can flush.
    fs.env.run(until=100.0)
    assert fs.group_ledger.horizon >= 1


# ------------------------------------------------------------- early acks
def test_ack_precedes_commit_and_fsync_barriers():
    fs = make_async_fs(AsyncCommitConfig(linger_ms=30.0, max_batch_ops=64))
    client = fs.client()

    def scenario():
        yield from client.mkdir("/early")
        # Acked while the batch still lingers: the horizon is pending.
        assert client.durability_horizon >= 1
        batch = fs.group_ledger.batches[client.durability_horizon]
        assert batch.state == "open"
        ok = yield from client.fsync()
        assert ok is True
        assert batch.state == "committed"
        assert not client._pending_horizons
        return True

    assert run(fs, scenario())
    assert client.durability_horizon in fs.group_ledger.confirmed


def test_fsync_is_a_noop_without_pending_horizons():
    fs = make_fs(num_namenodes=1)  # synchronous path
    client = fs.client()

    def scenario():
        yield from client.mkdir("/plain")
        ok = yield from client.fsync()
        return ok

    assert run(fs, scenario()) is True


# ------------------------------------------------- read-your-writes barrier
def test_sync_read_after_grouped_write_sees_the_write():
    fs = make_async_fs(AsyncCommitConfig(linger_ms=50.0, max_batch_ops=64))
    client = fs.client()

    def scenario():
        yield from client.mkdir("/ryow")
        # The batch is still lingering; a sync-path read prefix-related to
        # it must barrier on the flush instead of reading stale state.
        row = yield from client.stat("/ryow")
        listing = yield from client.listdir("/")
        return row, list(listing)

    row, names = run(fs, scenario())
    assert row.is_dir
    assert "ryow" in names


# ------------------------------------------------------- error isolation
def test_member_error_does_not_poison_the_batch():
    fs = make_async_fs(AsyncCommitConfig(linger_ms=2.0, max_batch_ops=16))
    client_pre = fs.client()
    run(fs, client_pre.mkdir("/dup"))

    client_a = fs.client()
    client_b = fs.client()
    outcomes = {}

    def dup(client):
        try:
            yield from client.mkdir("/dup")
            outcomes["a"] = "ok"
        except FileAlreadyExistsError:
            outcomes["a"] = "exists"

    def fresh(client):
        yield from client.mkdir("/fresh")
        outcomes["b"] = "ok"

    fs.env.process(dup(client_a), name="dup")
    fs.env.process(fresh(client_b), name="fresh")
    fs.env.run(until=5_000)

    assert outcomes == {"a": "exists", "b": "ok"}
    row = run(fs, fs.client().stat("/fresh"))
    assert row.is_dir


def test_grouped_directory_delete_scans_and_records_its_tombstones():
    # A directory delete rides a batch: it scans the children through the
    # batch's recording proxy, and every removed inode is in the batch's
    # write set, which the durability-horizon audit replays.
    fs = make_async_fs()
    client = fs.client()

    def scenario():
        yield from client.mkdir("/tree")
        yield from client.mkdir("/tree/sub")
        yield from client.fsync()
        yield from client.delete("/tree", recursive=True)
        yield from client.fsync()
        return (yield from client.exists("/tree"))

    assert run(fs, scenario()) is False
    batch = fs.group_ledger.batches[client.durability_horizon]
    assert batch.state == "committed"
    removed = {w.pk for w in batch.writes
               if w.table == INODES_TABLE and w.value is TOMBSTONE}
    assert {name for _parent, name in removed} == {"tree", "sub"}
    assert durability_horizon(fs).ok


# ------------------------------------------------------------- pipelining
def test_flushes_pipeline_across_batches():
    fs = make_async_fs(AsyncCommitConfig(linger_ms=0.2, max_batch_ops=4))
    clients = [fs.client() for _ in range(6)]

    def burst(client, base):
        for i in range(4):
            yield from client.mkdir(f"/{base}-{i}")

    for i, client in enumerate(clients):
        fs.env.process(burst(client, f"p{i}"), name=f"burst{i}")
    fs.env.run(until=10_000)

    committer = fs.namenodes[0].committer
    assert committer.batches_committed >= 2
    assert committer.ops_grouped == 24
    assert durability_horizon(fs).ok


# ----------------------------------------------------------- flush retries
def test_aborted_flush_backs_off_reruns_members_then_gives_up(monkeypatch):
    """A batch whose commit keeps aborting (retryably) re-runs every member
    through the same member body as the first attempt, concurrently, in a
    fresh transaction after each ``RetryPolicy()`` back-off drawn from the
    committer's stream; after the 8th retry it settles aborted and every
    early ack it gave is lost."""
    fs = make_async_fs(AsyncCommitConfig(linger_ms=500.0, max_batch_ops=3))
    env = fs.env
    nn = fs.namenodes[0]
    committer = nn.committer
    draws = random.Random()
    draws.setstate(committer._rng.getstate())
    opened, aborted, commits = {}, {}, []  # txid -> open / abort-done time
    real_transaction = nn.api.transaction
    real_commit, real_abort = NdbTransaction.commit, NdbTransaction.abort

    def transaction(hint_table=None, hint_key=None):
        txn = real_transaction(hint_table, hint_key)
        if hint_table == INODES_TABLE:  # only batches: every op is grouped
            opened[txn.txid] = env.now
        return txn

    def commit(txn):
        if txn.txid not in opened:
            return real_commit(txn)
        commits.append((txn.txid, len(txn.writes)))
        raise TransactionAbortedError("forced commit abort")

    def abort(txn):
        yield from real_abort(txn)
        if txn.txid in opened:
            aborted[txn.txid] = env.now

    monkeypatch.setattr(nn.api, "transaction", transaction)
    monkeypatch.setattr(NdbTransaction, "commit", commit)
    monkeypatch.setattr(NdbTransaction, "abort", abort)
    for i, client in enumerate(fs.client() for _ in range(3)):
        env.process(client.mkdir(f"/d{i}"), name=f"mk{i}")
    env.run(until=5_000)

    txids = sorted(opened, key=opened.get)
    assert len(txids) == 9  # the first attempt and 8 retries
    assert [txid for txid, _ in commits] == txids
    # Each fresh transaction carries every member's writes again.
    assert commits[0][1] >= 3 and {writes for _, writes in commits} == {commits[0][1]}
    policy = RetryPolicy()
    for attempt, (failed, fresh) in enumerate(zip(txids, txids[1:]), 1):
        backoff = opened[fresh] - aborted[failed]
        assert backoff == pytest.approx(policy.backoff_ms(attempt, draws), abs=1e-9)
    (batch,) = fs.group_ledger.batches.values()
    assert batch.state == "aborted" and batch.acked_ops == 3
    assert committer.batches_aborted == 1 and committer.batches_committed == 0
    assert fs.group_ledger.lost_acks == 3


def _batch_txids(monkeypatch, nn):
    """The txids of the transactions ``nn``'s group commits open (every
    other transaction of these deployments is the leader election's)."""
    txids = set()
    real_transaction = nn.api.transaction

    def transaction(hint_table=None, hint_key=None):
        txn = real_transaction(hint_table, hint_key)
        if hint_table == INODES_TABLE:
            txids.add(txn.txid)
        return txn

    monkeypatch.setattr(nn.api, "transaction", transaction)
    return txids


def test_an_acked_member_whose_name_is_taken_between_attempts_is_one_lost_ack(monkeypatch):
    """The batch's first commit aborts; before the retry, another
    transaction creates ``/a``.  The acked member ``mkdir /a`` fails
    validation on its re-run: one lost ack, and it leaves the batch, whose
    other member commits."""
    fs = make_async_fs(AsyncCommitConfig(linger_ms=500.0, max_batch_ops=2))
    env = fs.env
    nn = fs.namenodes[0]
    batch_txids = _batch_txids(monkeypatch, nn)
    real_commit, real_abort = NdbTransaction.commit, NdbTransaction.abort
    failed = []

    def commit(txn):
        if failed or txn.txid not in batch_txids:
            return real_commit(txn)
        failed.append(txn.txid)
        raise TransactionAbortedError("forced commit abort")

    def abort(txn):
        yield from real_abort(txn)
        if failed == [txn.txid]:
            rival = nn.api.transaction()
            yield from mkdir(nn.ctx, rival, path="/a")
            yield from rival.commit()

    monkeypatch.setattr(NdbTransaction, "commit", commit)
    monkeypatch.setattr(NdbTransaction, "abort", abort)
    for path in ("/a", "/b"):
        env.process(fs.client().mkdir(path), name=f"mk{path}")
    env.run(until=5_000)

    (batch,) = fs.group_ledger.batches.values()
    assert len(failed) == 1 and batch.state == "committed" and batch.acked_ops == 2
    assert batch.ops == [(OpType.MKDIR.value, None)]
    assert fs.group_ledger.lost_acks == 1
    assert nn.committer.batches_committed == 1
    assert run(fs, fs.client().exists("/b")) is True


@pytest.mark.parametrize("later_commits_abort", [True, False])
def test_a_member_that_replays_on_a_rerun_is_durable_not_lost(monkeypatch, later_commits_abort):
    """The batch's first commit lands but reports an abort, so the re-run
    finds each member's durable retry row.  Each member leaves the batch
    done, and the replay proves the batch committed: whether or not a later
    commit would abort, no ack is lost, the NN records every retry id as
    applied, the batch settles committed with the landed commit's writes,
    and both clients' fsync barriers confirm."""
    fs = make_async_fs(AsyncCommitConfig(linger_ms=500.0, max_batch_ops=2),
                       robust=RobustConfig())
    env = fs.env
    nn = fs.namenodes[0]
    batch_txids = _batch_txids(monkeypatch, nn)
    real_commit = NdbTransaction.commit
    landed, later = [], []

    def commit(txn):
        if txn.txid not in batch_txids:
            return real_commit(txn)
        if landed:
            later.append(txn.txid)
            if later_commits_abort:
                raise TransactionAbortedError("forced commit abort")
            return real_commit(txn)
        landed.extend(txn.writes)
        yield from real_commit(txn)
        raise TransactionAbortedError("commit landed, reply lost")

    monkeypatch.setattr(NdbTransaction, "commit", commit)
    confirmed = []

    def mkdir_then_fsync(path):
        client = fs.client()
        yield from client.mkdir(path)
        confirmed.append((yield from client.fsync()))

    for path in ("/replayed", "/sibling"):
        env.process(mkdir_then_fsync(path), name=f"mk{path}")
    env.run(until=5_000)

    retry_pks = [w.pk for w in landed if w.table == RETRY_TABLE]
    assert len(retry_pks) == 2 and later == []
    assert all(nn.retry_cache.lookup(pk)[0] for pk in retry_pks)
    assert fs.group_ledger.lost_acks == 0
    (batch,) = fs.group_ledger.batches.values()
    assert batch.state == "committed" and batch.acked_ops == 2
    assert batch.writes == landed and len(batch.ops) == 2
    assert nn.committer.batches_committed == 1
    assert confirmed == [True, True]
    assert durability_horizon(fs).ok


# ------------------------------------------------------------ crash → lost
def test_crash_mid_linger_loses_the_ack_and_fsync_reports_it():
    fs = make_async_fs(
        AsyncCommitConfig(linger_ms=200.0, max_batch_ops=64), num_namenodes=2
    )
    client = fs.client()
    result = {}

    def scenario():
        yield from client.mkdir("/doomed")
        horizon = client.durability_horizon
        assert horizon >= 1
        batch = fs.group_ledger.batches[horizon]
        assert batch.state == "open"
        # Crash the NN that owns the lingering batch before it flushes.
        owner = next(nn for nn in fs.namenodes if str(nn.addr) == str(batch.owner))
        owner.shutdown()
        assert batch.state == "lost"
        try:
            yield from client.fsync()
            result["fsync"] = "ok"
        except FsError:
            result["fsync"] = "lost"
        return True

    assert run(fs, scenario())
    assert result["fsync"] == "lost"
    assert fs.group_ledger.lost_acks == 1
    # The invariant audits the lost batch as all-or-nothing (here: nothing).
    fs.env.run(until=fs.env.now + 300.0)
    verdict = durability_horizon(fs)
    assert verdict.ok, verdict.detail
    assert run(fs, fs.client().exists("/doomed")) is False
