"""HopsFS metadata schema: normalized file-system tables in NDB.

Mirrors HopsFS (FAST'17): the namespace is stored fully normalized in NDB.
The ``inodes`` table is keyed by ``(parent_id, name)`` and *partitioned by
parent_id*, so all children of a directory live in one partition — a
directory listing is a single partition-pruned index scan, and path
resolution is a chain of primary-key reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

from ..ndb.schema import Schema

__all__ = [
    "InodeRow",
    "BlockRow",
    "LeaseRow",
    "LeaderRow",
    "RetryRow",
    "ROOT_INODE_ID",
    "SMALL_FILE_MAX_BYTES",
    "BLOCK_SIZE_BYTES",
    "define_fs_schema",
    "IdGenerator",
]

ROOT_INODE_ID = 1
# Files under 128 KB live with their metadata in NDB (Section II-A3).
SMALL_FILE_MAX_BYTES = 128 * 1024
# Large files are split into 128 MB blocks.
BLOCK_SIZE_BYTES = 128 * 1024 * 1024

INODES_TABLE = "inodes"
BLOCKS_TABLE = "blocks"
LEASES_TABLE = "leases"
LEADER_TABLE = "leader"
RETRY_TABLE = "retry_cache"

# Rows are immutable values, so they are ``typing.NamedTuple``s: a third of
# a frozen dataclass's cost to build or less, with the same repr, the same
# hash (a frozen dataclass hashes its field tuple) and field-wise equality.


class InodeRow(NamedTuple):
    """One row of the ``inodes`` table.

    pk = ``(parent_id, name)``; partition key = ``parent_id``.
    """

    id: int
    parent_id: int
    name: str
    is_dir: bool
    size: int = 0
    replication: int = 3
    permission: int = 0o755
    mtime_ms: float = 0.0
    # Small files: payload stored inline (None for directories/large files).
    small_data: Optional[bytes] = None
    # Large files: ordered block ids.
    block_ids: tuple[int, ...] = ()
    under_construction: bool = False

    @property
    def pk(self) -> tuple[int, str]:
        return (self.parent_id, self.name)

    def with_(self, **changes) -> "InodeRow":
        return self._replace(**changes)


class BlockRow(NamedTuple):
    """One row of the ``blocks`` table.

    pk = ``block_id``; partition key = ``inode_id`` so a file's blocks are
    colocated with a single partition scan.
    """

    block_id: int
    inode_id: int
    index: int  # the field, not ``tuple.index``
    size: int = 0
    # Addresses of block-storage datanodes holding replicas.
    locations: tuple = ()

    def with_(self, **changes) -> "BlockRow":
        return self._replace(**changes)


class LeaseRow(NamedTuple):
    """Writer lease for a file under construction; pk = inode_id."""

    inode_id: int
    holder: str
    expiry_ms: float


class LeaderRow(NamedTuple):
    """One metadata server's row in the leader-election table.

    The election protocol [28] stores a monotonically increasing counter per
    NN; HopsFS-CL extends each round to also report the server's AZ
    (Section IV-B3).
    """

    nn_id: int
    counter: int
    updated_ms: float
    location_domain_id: int = 0
    address: object = None


class RetryRow(NamedTuple):
    """Recorded result of one retried-mutation id (HDFS RetryCache, but
    transactional: written in the same NDB transaction as the mutation, so
    an NN crash after commit cannot lose it).

    pk = ``(client_id, op_seq)``; partition key = ``client_id`` so one
    client's retry state lives in one partition.
    """

    client_id: str
    op_seq: int
    result: object = None



def define_fs_schema(read_backup: bool, fully_replicated_leader: bool = False) -> Schema:
    """Create the HopsFS table set.

    HopsFS-CL "ensures that all the tables are Read Backup enabled"
    (Section IV-A5); vanilla HopsFS leaves the option off.  The tiny, hot
    leader-election table can additionally use the paper's Fully
    Replicated option (Section IV-A3) so every NN scans a local copy:
    slower (rare) writes for AZ-local reads everywhere.
    """
    schema = Schema()
    schema.define(INODES_TABLE, read_backup=read_backup, row_bytes=224)
    schema.define(BLOCKS_TABLE, read_backup=read_backup, row_bytes=160)
    schema.define(LEASES_TABLE, read_backup=read_backup, row_bytes=96)
    schema.define(RETRY_TABLE, read_backup=read_backup, row_bytes=128)
    schema.define(
        LEADER_TABLE,
        read_backup=read_backup,
        fully_replicated=fully_replicated_leader,
        row_bytes=96,
    )
    return schema


@dataclass
class IdGenerator:
    """Allocates inode/block ids in batches, like HopsFS's id service.

    HopsFS namenodes grab id ranges from NDB and hand them out locally; we
    model the outcome (globally unique, mostly-sequential ids) without the
    extra transactions.
    """

    _inode_ids: itertools.count = field(default_factory=lambda: itertools.count(ROOT_INODE_ID + 1))
    _block_ids: itertools.count = field(default_factory=lambda: itertools.count(1_000_000))

    def next_inode_id(self) -> int:
        return next(self._inode_ids)

    def inode_ids(self) -> Iterator[int]:
        """The ids :meth:`next_inode_id` hands out, as one iterator (bulk
        installs draw from it without a call per id)."""
        return self._inode_ids

    def next_block_id(self) -> int:
        return next(self._block_ids)
