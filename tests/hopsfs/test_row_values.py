"""Metadata rows are immutable values: the namespace's ``InodeRow``,
``BlockRow``, ``LeaseRow``, ``LeaderRow`` and ``RetryRow``, CephFS's
``MdsInode`` and ``readFile``'s ``FileContent``.  Their repr, hash and
equality are those of the frozen dataclasses they once were, so every set
and dict that holds one iterates as it did, and any text that prints one
reads as it did."""

import pickle

import pytest

from repro.cephfs.mds import MdsInode
from repro.hopsfs.metadata import BlockRow, InodeRow, LeaderRow, LeaseRow, RetryRow
from repro.hopsfs.ops import FileContent

INODE = InodeRow(7, 1, "f", False, small_data=b"x")
BLOCK = BlockRow(1_000_000, 7, 2, size=10, locations=("dn1", "dn2"))

# (row, its repr as the dataclass wrote it)
ROWS = [
    (INODE,
     "InodeRow(id=7, parent_id=1, name='f', is_dir=False, size=0, replication=3, "
     "permission=493, mtime_ms=0.0, small_data=b'x', block_ids=(), "
     "under_construction=False)"),
    (BLOCK,
     "BlockRow(block_id=1000000, inode_id=7, index=2, size=10, locations=('dn1', 'dn2'))"),
    (LeaseRow(7, "client1", 60_000.0),
     "LeaseRow(inode_id=7, holder='client1', expiry_ms=60000.0)"),
    (LeaderRow(2, 5, 12.5, location_domain_id=3),
     "LeaderRow(nn_id=2, counter=5, updated_ms=12.5, location_domain_id=3, address=None)"),
    (RetryRow("client1", 4, result=True),
     "RetryRow(client_id='client1', op_seq=4, result=True)"),
    (MdsInode(3, "/a/b", True, mtime_ms=1.5),
     "MdsInode(id=3, path='/a/b', is_dir=True, size=0, mtime_ms=1.5, version=1)"),
    (FileContent(INODE, small_data=b"x"),
     f"FileContent(inode={INODE!r}, small_data=b'x', blocks=())"),
]
_IDS = [type(row).__name__ for row, _text in ROWS]


@pytest.mark.parametrize("row, text", ROWS, ids=_IDS)
def test_repr_is_the_dataclass_repr(row, text):
    assert repr(row) == text


@pytest.mark.parametrize("row, text", ROWS, ids=_IDS)
def test_hash_and_equality_are_the_field_tuples(row, text):
    fields = tuple(getattr(row, name) for name in row._fields)
    assert hash(row) == hash(fields)
    assert row == type(row)(*fields) and row != row._replace(**{row._fields[0]: -1})


@pytest.mark.parametrize("row, text", ROWS, ids=_IDS)
def test_fields_cannot_be_assigned(row, text):
    with pytest.raises(AttributeError):
        setattr(row, row._fields[0], -1)
    with pytest.raises(AttributeError):
        row.not_a_field = 1


@pytest.mark.parametrize("row, text", ROWS, ids=_IDS)
def test_pickle_round_trips(row, text):
    # Scale workers send results across processes.
    copy = pickle.loads(pickle.dumps(row))
    assert copy == row and type(copy) is type(row)


@pytest.mark.parametrize("row", [INODE, BLOCK, MdsInode(3, "/a", False)], ids=lambda r: type(r).__name__)
def test_with_leaves_the_original_unchanged(row):
    before = repr(row)
    changed = row.with_(size=99)
    assert changed.size == 99 and row.size != 99
    assert repr(row) == before
    assert changed == row._replace(size=99)


def test_block_index_is_the_field_not_tuple_index():
    assert BLOCK.index == 2
    assert BLOCK.with_(index=5).index == 5

