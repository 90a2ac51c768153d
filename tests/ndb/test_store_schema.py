"""Unit tests for the fragment store, schema and table options."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, NdbError
from repro.ndb import FragmentStore, ReadStats, Schema, TableDef
from repro.ndb.schema import TOMBSTONE
from repro.types import NodeAddress, NodeKind

from .conftest import store_state


def test_schema_define_and_lookup():
    schema = Schema()
    schema.define("inodes", read_backup=True, row_bytes=224)
    table = schema.table("inodes")
    assert table.read_backup
    assert not table.fully_replicated
    assert "inodes" in schema
    assert len(schema) == 1


def test_schema_duplicate_rejected():
    schema = Schema()
    schema.define("t")
    with pytest.raises(ConfigError):
        schema.define("t")


def test_schema_unknown_table():
    with pytest.raises(ConfigError):
        Schema().table("ghost")
    assert Schema().get("ghost") is None


def test_schema_read_backup_everywhere():
    schema = Schema()
    schema.define("a")
    schema.define("b", fully_replicated=True)
    clone = schema.with_read_backup_everywhere()
    assert all(t.read_backup for t in clone.tables())
    assert clone.table("b").fully_replicated


def test_tabledef_validation():
    with pytest.raises(ConfigError):
        TableDef(name="")
    with pytest.raises(ConfigError):
        TableDef(name="x", row_bytes=0)


def test_store_read_write_delete():
    store = FragmentStore()
    store.load("t", "pk", "part", {"v": 1})
    assert store.read("t", "pk") == {"v": 1}
    assert store.row_count("t") == 1
    store.load("t", "pk", "part", TOMBSTONE)
    assert store.read("t", "pk") is None
    assert store.row_count("t") == 0


def test_store_prepare_commit_cycle():
    store = FragmentStore()
    store.prepare(7, "t", "k", "p", "new")
    assert store.has_prepared("t", "k")
    assert store.read("t", "k") is None  # not visible until commit
    store.commit_prepared(7, "t", "k")
    assert store.read("t", "k") == "new"
    assert not store.has_prepared("t", "k")


def test_store_prepare_abort():
    store = FragmentStore()
    store.load("t", "k", "p", "old")
    store.prepare(7, "t", "k", "p", "new")
    store.abort_prepared(7, "t", "k")
    assert store.read("t", "k") == "old"


def test_store_conflicting_prepare_rejected():
    store = FragmentStore()
    store.prepare(1, "t", "k", "p", "a")
    with pytest.raises(NdbError):
        store.prepare(2, "t", "k", "p", "b")
    # same transaction may re-prepare (second write to the same row)
    store.prepare(1, "t", "k", "p", "a2")
    store.commit_prepared(1, "t", "k")
    assert store.read("t", "k") == "a2"


def test_store_commit_without_prepare_fails():
    store = FragmentStore()
    with pytest.raises(NdbError):
        store.commit_prepared(1, "t", "k")


def test_store_abort_all():
    store = FragmentStore()
    store.prepare(1, "t", "a", "p", 1)
    store.prepare(1, "t", "b", "p", 2)
    store.prepare(2, "t", "c", "p", 3)
    store.abort_all(1)
    assert store.prepared_count() == 1


def test_store_commit_of_a_row_another_txn_prepared_leaves_it_prepared():
    # A late Complete/Commit for txn 1 must not destroy txn 2's version.
    store = FragmentStore()
    store.prepare(2, "t", "k", "k", "theirs")
    with pytest.raises(NdbError):
        store.commit_prepared(1, "t", "k")
    assert list(store.iter_prepared()) == [(("t", "k"), 2)]
    store.commit_prepared(2, "t", "k")
    assert store.read("t", "k") == "theirs"


class _ScanStore(FragmentStore):
    """Reference: settle a transaction by scanning every prepared row."""

    def abort_all(self, txid):
        for key in [k for k, p in self._prepared.items() if p.txid == txid]:
            self.abort_prepared(txid, *key)

    def commit_all(self, txid):
        for key in [k for k, p in self._prepared.items() if p.txid == txid]:
            self.commit_prepared(txid, *key)


_store_steps = st.lists(
    st.tuples(
        st.sampled_from(["prepare", "prepare", "commit", "abort", "commit_all", "abort_all"]),
        st.integers(1, 4),           # txid
        st.sampled_from("abcdef"),   # pk
        st.sampled_from([1, 2, TOMBSTONE]),
    ),
    max_size=60,
)


@given(steps=_store_steps)
@settings(max_examples=200, deadline=None)
def test_store_txid_index_settles_like_a_scan_of_every_prepared_row(steps):
    stores = FragmentStore(), _ScanStore()
    applied = [], []
    for store, log in zip(stores, applied):
        apply = store._apply
        store._apply = lambda t, pk, pkey, v, _a=apply, _l=log: (_l.append((pk, v)), _a(t, pk, pkey, v))
    for verb, txid, pk, value in steps:
        outcomes = []
        for store in stores:
            try:
                if verb == "prepare":
                    store.prepare(txid, "t", pk, pk, value)
                elif verb == "commit":
                    store.commit_prepared(txid, "t", pk)
                elif verb == "abort":
                    store.abort_prepared(txid, "t", pk)
                else:
                    getattr(store, verb)(txid)
                outcomes.append("ok")
            except NdbError:
                outcomes.append("refused")
        assert outcomes[0] == outcomes[1]
        new, ref = stores
        # Same order of application, same prepared rows in the same order ...
        assert applied[0] == applied[1]
        assert list(new.iter_prepared()) == list(ref.iter_prepared())
        assert sorted(new.iter_rows("t")) == sorted(ref.iter_rows("t"))
        # ... and the index is exactly the scan, per transaction, in order.
        for t in range(1, 5):
            scan = [k for k, owner in new.iter_prepared() if owner == t]
            assert list(new._prepared_by_txn.get(t, ())) == scan


_load_rows = st.lists(
    st.tuples(
        st.sampled_from("abcdef"),          # pk: duplicates are the point
        st.sampled_from(["dirA", "dirB"]),  # partition key: a pk may move
        st.sampled_from([1, 2, TOMBSTONE]),
    ),
    max_size=30,
)


@given(existing=_load_rows, batches=st.lists(_load_rows, max_size=3))
@settings(max_examples=200, deadline=None)
def test_load_many_leaves_the_store_as_row_by_row_loads_and_commits_do(existing, batches):
    bulk, one_by_one, committed = stores = FragmentStore(), FragmentStore(), FragmentStore()
    for store in stores:
        for pk, partition_key, value in existing:
            store.load("t", pk, partition_key, value)
    for batch in batches:
        # The entries are shared between stores, as between replicas.
        entries = [("t", pk, partition_key, value) for pk, partition_key, value in batch]
        bulk.load_many(entries)
        for pk, partition_key, value in batch:
            one_by_one.load("t", pk, partition_key, value)
            committed.prepare(1, "t", pk, partition_key, value)
            committed.commit_prepared(1, "t", pk)
        assert store_state(bulk) == store_state(one_by_one) == store_state(committed)
        for partition_key in ("dirA", "dirB"):
            assert bulk.scan("t", partition_key) == committed.scan("t", partition_key)


def test_store_read_for_sees_own_writes():
    store = FragmentStore()
    store.load("t", "k", "p", "old")
    store.prepare(5, "t", "k", "p", "mine")
    assert store.read_for(5, "t", "k") == "mine"
    assert store.read_for(6, "t", "k") == "old"
    store.prepare(5, "t", "gone", "p", TOMBSTONE) if False else None
    assert store.read("t", "k") == "old"


def test_store_scan_by_partition_key():
    store = FragmentStore()
    for i in range(5):
        store.load("t", f"k{i}", "dirA", i)
    store.load("t", "other", "dirB", 99)
    rows = store.scan("t", "dirA")
    assert len(rows) == 5
    assert all(pk.startswith("k") for pk, _v in rows)
    # deleting removes from the index
    store.load("t", "k0", "dirA", TOMBSTONE)
    assert len(store.scan("t", "dirA")) == 4


def test_store_partition_key_move_updates_index():
    store = FragmentStore()
    store.load("t", "k", "dirA", 1)
    store.load("t", "k", "dirB", 2)
    assert store.scan("t", "dirA") == []
    assert store.scan("t", "dirB") == [("k", 2)]


def test_read_stats_distribution():
    stats = ReadStats()
    node = NodeAddress(NodeKind.NDB_DATANODE, 1)
    for _ in range(3):
        stats.record("t", 5, 0, node, same_az=True)
    stats.record("t", 5, 1, node, same_az=False)
    dist = stats.partition_distribution(5)
    assert dist == {0: 3, 1: 1}
    assert stats.primary_fraction() == pytest.approx(0.75)
    assert stats.az_local_fraction() == pytest.approx(0.75)
