"""``FragmentStore`` against a plain-dict model, step for step.

The model keeps each committed row as ``{(table, pk): (partition_key,
value)}`` and each prepared version as ``{(table, pk): (txid,
partition_key, value)}``, in insertion order, and applies a committed
write the obvious way: a delete pops the key, a write sets it.  The state
machine drives two stores (a node and its group peer) through the same
calls and requires, after every step, that ``read``, ``lookup``,
``read_for``, ``scan``, ``iter_rows`` and ``prepared_count`` answer as the
model does: the store's one partition record (the pk's index set) must
follow deletes, rewrites under another partition key and node-recovery
copies (``level_with``).
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import NdbError
from repro.ndb import FragmentStore
from repro.ndb.schema import TOMBSTONE

TABLES = ("t", "u")
PKS = ("a", "b", "c")
PARTITIONS = ("p1", "p2")
TXIDS = (1, 2, 3)

_sides = st.sampled_from([0, 1])
_tables = st.sampled_from(TABLES)
_pks = st.sampled_from(PKS)
_partitions = st.sampled_from(PARTITIONS)
_txids = st.sampled_from(TXIDS)
_values = st.sampled_from([1, 2, TOMBSTONE])
_entries = st.lists(st.tuples(_tables, _pks, _partitions, _values), min_size=1, max_size=4)


class _Model:
    def __init__(self):
        self.rows = {}  # (table, pk) -> (partition_key, value)
        self.prepared = {}  # (table, pk) -> (txid, partition_key, value)

    def apply(self, table, pk, partition_key, value):
        if value is TOMBSTONE:
            self.rows.pop((table, pk), None)
        else:
            self.rows[(table, pk)] = (partition_key, value)

    def commit(self, txid, key):
        _txid, partition_key, value = self.prepared.pop(key)
        self.apply(*key, partition_key, value)


class StoreAgainstModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.stores = FragmentStore(), FragmentStore()
        self.models = _Model(), _Model()

    @rule(side=_sides, txid=_txids, table=_tables, pk=_pks,
          partition_key=_partitions, value=_values)
    def prepare(self, side, txid, table, pk, partition_key, value):
        store, model = self.stores[side], self.models[side]
        held = model.prepared.get((table, pk))
        if held is not None and held[0] != txid:
            with pytest.raises(NdbError):
                store.prepare(txid, table, pk, partition_key, value)
            return
        store.prepare(txid, table, pk, partition_key, value)
        model.prepared[(table, pk)] = (txid, partition_key, value)

    @rule(side=_sides, txid=_txids, table=_tables, pk=_pks)
    def commit_prepared(self, side, txid, table, pk):
        store, model = self.stores[side], self.models[side]
        held = model.prepared.get((table, pk))
        if held is None or held[0] != txid:
            with pytest.raises(NdbError):
                store.commit_prepared(txid, table, pk)
            return
        store.commit_prepared(txid, table, pk)
        model.commit(txid, (table, pk))

    @rule(side=_sides, txid=_txids)
    def abort_all(self, side, txid):
        self.stores[side].abort_all(txid)
        prepared = self.models[side].prepared
        for key in [key for key, (owner, _p, _v) in prepared.items() if owner == txid]:
            del prepared[key]

    @rule(side=_sides, txid=_txids)
    def commit_all(self, side, txid):
        self.stores[side].commit_all(txid)
        model = self.models[side]
        for key in [key for key, (owner, _p, _v) in model.prepared.items() if owner == txid]:
            model.commit(txid, key)

    @rule(side=_sides, entries=_entries)
    def load(self, side, entries):
        # Deletes, rewrites and rewrites under another partition key.
        store, model = self.stores[side], self.models[side]
        if len(entries) == 1:
            store.load(*entries[0])
        else:
            store.load_many(entries)
        for entry in entries:
            model.apply(*entry)

    @rule(side=_sides, entries=_entries)
    def load_new(self, side, entries):
        store, model = self.stores[side], self.models[side]
        rows, partitions, pks_of = {}, [], {}
        for table, pk, partition_key, value in entries:
            if value is TOMBSTONE or (table, pk) in rows:
                continue  # load_new takes neither
            rows[(table, pk)] = value
            pks = pks_of.get((table, partition_key))
            if pks is None:
                pks = pks_of[(table, partition_key)] = []
                partitions.append(((table, partition_key), pks))
            pks.append(pk)
        fresh = model.rows.keys().isdisjoint(rows)
        assert store.load_new(rows, partitions) == fresh
        if fresh:
            # One-by-one loads in the order ``rows`` names them.
            partition_of = {(table, pk): partition_key
                            for (table, partition_key), pks in partitions for pk in pks}
            for (table, pk), value in rows.items():
                model.apply(table, pk, partition_of[(table, pk)], value)

    @rule(side=_sides)
    def level_with(self, side):
        # A recovering node copies from its peer: a fresh store or a stale one.
        model, donor = self.models[side], self.models[1 - side]
        copied = 0
        for key, (partition_key, value) in donor.rows.items():
            if key not in model.rows or model.rows[key][1] != value:
                model.apply(*key, partition_key, value)
                copied += 1
        for key in [key for key in model.rows if key not in donor.rows]:
            del model.rows[key]
        assert self.stores[side].level_with(self.stores[1 - side]) == copied

    @rule(side=_sides)
    def restart(self, side):
        """A restarted node comes back with a fresh, empty store."""
        self.stores = tuple(FragmentStore() if i == side else s for i, s in enumerate(self.stores))
        self.models = tuple(_Model() if i == side else m for i, m in enumerate(self.models))

    @invariant()
    def answers_as_the_model_does(self):
        for store, model in zip(self.stores, self.models):
            assert store.prepared_count() == len(model.prepared)
            for table in TABLES:
                assert list(store.iter_rows(table)) == [
                    (pk, value) for (t, pk), (_p, value) in model.rows.items() if t == table
                ]
                for partition_key in PARTITIONS:
                    assert store.scan(table, partition_key) == sorted(
                        ((pk, value) for (t, pk), (p, value) in model.rows.items()
                         if t == table and p == partition_key),
                        key=lambda item: repr(item[0]),
                    )
                for pk in PKS:
                    row = model.rows.get((table, pk))
                    committed = None if row is None else row[1]
                    assert store.read(table, pk) == committed
                    assert store.lookup(table, pk) == (row is not None, committed)
                    held = model.prepared.get((table, pk))
                    for txid in TXIDS:
                        mine = committed
                        if held is not None and held[0] == txid:
                            mine = None if held[2] is TOMBSTONE else held[2]
                        assert store.read_for(txid, table, pk) == mine


# 20 steps and one reported bug: a failing run shrinks in about a minute, not several.
StoreAgainstModel.TestCase.settings = settings(
    max_examples=200, stateful_step_count=20, deadline=None, report_multiple_bugs=False
)
TestStoreAgainstModel = StoreAgainstModel.TestCase
