"""File-system operations implemented as NDB transactions.

Every operation is a generator taking ``(ctx, txn, ...)`` and is executed
by a namenode under :func:`repro.ndb.client.run_transaction`, hinted with
the parent inode id so the transaction starts on the NDB node owning the
relevant partition (distribution-aware transactions).

Locking follows HopsFS's hierarchical/implicit scheme: only the target
inode(s) take row locks; ancestors and associated metadata are read at
read-committed.  Read-only operations (``readFile``, ``stat``, ``listDir``)
take no locks at all — in HopsFS-CL they are therefore served by AZ-local
replicas of Read Backup tables (Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from ..errors import (
    DirectoryNotEmptyError,
    FileAlreadyExistsError,
    FileNotFoundFsError,
    FsError,
    InvalidPathError,
    LeaseExpiredError,
    NotDirectoryError,
)
from ..ndb.client import NdbTransaction
from ..ndb.schema import LockMode
from .metadata import (
    BLOCKS_TABLE,
    INODES_TABLE,
    LEASES_TABLE,
    SMALL_FILE_MAX_BYTES,
    BlockRow,
    IdGenerator,
    InodeRow,
    LeaseRow,
)
from .dircache import WalkView
from .pathlock import resolve_inode, resolve_parent, split_path

__all__ = ["FsContext", "FileContent", "mkdir", "create_file", "read_file",
           "stat", "exists", "list_dir", "delete", "rename", "chmod",
           "set_replication", "add_block", "complete_file", "mkdirs"]


# Replication of a file created without one, and how long a create's
# lease lasts.
DEFAULT_REPLICATION = 3
LEASE_DURATION_MS = 60_000.0


@dataclass
class FsContext:
    """Services an operation needs beyond the transaction itself."""

    ids: IdGenerator
    now: Callable[[], float]
    # (client_hint, replication, exclude) -> tuple of DN addresses
    place_block: Callable
    # NN-side path-component cache (see repro.hopsfs.dircache).
    dir_cache: object


class FileContent(NamedTuple):
    """Result of ``readFile``: inline data or block locations (a value,
    like the rows it carries)."""

    inode: InodeRow
    small_data: Optional[bytes] = None
    blocks: tuple[BlockRow, ...] = ()

    @property
    def is_small(self) -> bool:
        return self.small_data is not None


# --------------------------------------------------------------------- helpers
def _lock_slot(txn: NdbTransaction, parent_id: int, name: str, mode=LockMode.EXCLUSIVE):
    """Lock the (parent, name) slot — phantom-safe: the row may not exist."""
    return txn.read(INODES_TABLE, (parent_id, name), parent_id, mode)


def _cache_uncommitted(ctx: FsContext, txn: NdbTransaction, row: InodeRow) -> None:
    """Cache a directory row this transaction wrote but has not committed.

    ``stat``/``exists`` resolve directories from the cache without a read,
    so an attempt that is abandoned must take the entry back out.
    """
    if row.is_dir:
        ctx.dir_cache.put(row)
        txn.on_abort(ctx.dir_cache.pop, (row.parent_id, row.name), None)


def _require_dir(row: InodeRow, path: str) -> None:
    if not row.is_dir:
        raise NotDirectoryError(f"{path} is not a directory")


# ------------------------------------------------------------------ operations
def mkdir(ctx: FsContext, txn: NdbTransaction, path: str):
    """Create one directory; parents must exist."""
    parent, name = yield from resolve_parent(txn, path, ctx.dir_cache)
    if parent.id != 1:
        # S-lock the parent so a concurrent delete cannot orphan the child.
        parent_locked = yield from _lock_slot(
            txn, parent.parent_id, parent.name, LockMode.SHARED
        )
        if parent_locked is None:
            raise FileNotFoundFsError(f"parent of {path} disappeared")
        _require_dir(parent_locked, path.rsplit("/", 1)[0] or "/")
    existing = yield from _lock_slot(txn, parent.id, name)
    if existing is not None:
        raise FileAlreadyExistsError(f"{path} already exists")
    row = InodeRow(
        id=ctx.ids.next_inode_id(),
        parent_id=parent.id,
        name=name,
        is_dir=True,
        mtime_ms=ctx.now(),
    )
    yield from txn.write(INODES_TABLE, row.pk, row, partition_key=parent.id)
    _cache_uncommitted(ctx, txn, row)
    return row.id


def mkdirs(ctx: FsContext, txn: NdbTransaction, path: str):
    """Create a directory and any missing ancestors (like ``mkdir -p``)."""
    components = split_path(path)
    if not components:
        return 1
    parent_id = 1
    created = None
    for depth, name in enumerate(components):
        row = yield from txn.read(INODES_TABLE, (parent_id, name), partition_key=parent_id)
        if row is None:
            row = yield from _lock_slot(txn, parent_id, name)
        if row is None:
            row = InodeRow(
                id=ctx.ids.next_inode_id(),
                parent_id=parent_id,
                name=name,
                is_dir=True,
                mtime_ms=ctx.now(),
            )
            yield from txn.write(INODES_TABLE, row.pk, row, partition_key=parent_id)
            created = row.id
        elif not row.is_dir:
            raise NotDirectoryError("/" + "/".join(components[: depth + 1]) + " is a file")
        parent_id = row.id
    return created if created is not None else parent_id


def create_file(
    ctx: FsContext,
    txn: NdbTransaction,
    path: str,
    data: bytes = b"",
    replication: Optional[int] = None,
    client: str = "",
):
    """Create a file.  Small payloads (<128 KB) are stored inline in NDB.

    Larger files are created *under construction*: the client then calls
    :func:`add_block` / :func:`complete_file`, writing data to the block
    storage layer.
    """
    parent, name = yield from resolve_parent(txn, path, ctx.dir_cache)
    if parent.id != 1:
        parent_locked = yield from _lock_slot(
            txn, parent.parent_id, parent.name, LockMode.SHARED
        )
        if parent_locked is None:
            raise FileNotFoundFsError(f"parent of {path} disappeared")
        _require_dir(parent_locked, path.rsplit("/", 1)[0] or "/")
    existing = yield from _lock_slot(txn, parent.id, name)
    if existing is not None:
        raise FileAlreadyExistsError(f"{path} already exists")
    small = len(data) <= SMALL_FILE_MAX_BYTES
    row = InodeRow(
        id=ctx.ids.next_inode_id(),
        parent_id=parent.id,
        name=name,
        is_dir=False,
        size=len(data) if small else 0,
        replication=replication or DEFAULT_REPLICATION,
        mtime_ms=ctx.now(),
        small_data=data if small else None,
        under_construction=not small,
    )
    yield from txn.write(
        INODES_TABLE, row.pk, row, partition_key=parent.id, size_hint=224 + len(data if small else b"")
    )
    if not small:
        lease = LeaseRow(
            inode_id=row.id, holder=client, expiry_ms=ctx.now() + LEASE_DURATION_MS
        )
        yield from txn.write(LEASES_TABLE, row.id, lease)
    return row.id


def read_file(ctx: FsContext, txn: NdbTransaction, path: str):
    """Read a file: inline data, or the block rows with their locations."""
    row = yield from resolve_inode(txn, path, ctx.dir_cache)
    if row.is_dir:
        raise FsError(f"{path} is a directory")
    if row.small_data is not None:
        return FileContent(inode=row, small_data=row.small_data)
    blocks = []
    for block_id in row.block_ids:
        block = yield from txn.read(BLOCKS_TABLE, block_id, partition_key=row.id)
        if block is not None:
            blocks.append(block)
    blocks.sort(key=lambda b: b.index)
    return FileContent(inode=row, blocks=tuple(blocks))


def stat(ctx: FsContext, txn: NdbTransaction, path: str):
    return resolve_inode(txn, path, ctx.dir_cache)


def exists(ctx: FsContext, txn: NdbTransaction, path: str):
    try:
        yield from resolve_inode(txn, path, ctx.dir_cache)
    except (FileNotFoundFsError, NotDirectoryError):
        return False
    return True


def list_dir(ctx: FsContext, txn: NdbTransaction, path: str):
    """Consistent directory listing: one partition-pruned index scan."""
    row = yield from resolve_inode(txn, path, ctx.dir_cache)
    _require_dir(row, path)
    children = yield from txn.scan(INODES_TABLE, row.id)
    return sorted(child.name for _pk, child in children)


def delete(ctx: FsContext, txn: NdbTransaction, path: str, recursive: bool = False):
    """Delete a file or directory (optionally an entire subtree).

    The whole subtree delete runs in one transaction — HopsFS's subtree
    protocol batches very large trees, which we do not need at test scale.
    Returns the number of inodes removed.
    """
    parent, name = yield from resolve_parent(txn, path, ctx.dir_cache)
    row = yield from _lock_slot(txn, parent.id, name)
    if row is None:
        raise FileNotFoundFsError(f"{path} does not exist")
    ctx.dir_cache.pop((parent.id, name), None)
    removed = yield from _delete_tree(ctx, txn, row, recursive, path)
    return removed


def _delete_tree(ctx, txn, row: InodeRow, recursive: bool, path: str):
    removed = 1
    if row.is_dir:
        children = yield from txn.scan(INODES_TABLE, row.id)
        if children and not recursive:
            raise DirectoryNotEmptyError(f"{path} is not empty")
        for _pk, child in children:
            locked = yield from _lock_slot(txn, child.parent_id, child.name)
            if locked is None:
                continue
            removed += yield from _delete_tree(
                ctx, txn, locked, recursive, f"{path}/{child.name}"
            )
    else:
        for block_id in row.block_ids:
            yield from txn.delete(BLOCKS_TABLE, block_id, partition_key=row.id)
        if row.under_construction:
            yield from txn.delete(LEASES_TABLE, row.id)
    yield from txn.delete(INODES_TABLE, row.pk, partition_key=row.parent_id)
    return removed


def rename(ctx: FsContext, txn: NdbTransaction, src: str, dst: str):
    """Atomic rename — the operation object stores cannot do (Section I).

    Renaming a directory is O(1): children are keyed by the directory's
    inode id, which does not change.
    """
    src_parent, src_name = yield from resolve_parent(txn, src, ctx.dir_cache)
    dst_ancestors = WalkView(ctx.dir_cache)
    dst_parent, dst_name = yield from resolve_parent(txn, dst, dst_ancestors)
    src_pk = (src_parent.id, src_name)
    dst_pk = (dst_parent.id, dst_name)
    if src_pk == dst_pk:
        raise InvalidPathError("rename onto itself")
    # Deterministic lock order prevents rename/rename deadlocks.
    locked = {}
    for pk in sorted((src_pk, dst_pk), key=repr):
        locked[pk] = yield from _lock_slot(txn, pk[0], pk[1])
    src_row = locked[src_pk]
    if src_row is None:
        raise FileNotFoundFsError(f"{src} does not exist")
    if locked[dst_pk] is not None:
        raise FileAlreadyExistsError(f"{dst} already exists")
    if src_row.id in dst_ancestors.ids:
        # Moving a directory under itself would cut a cycle out of the
        # namespace.
        raise InvalidPathError(f"cannot move {src} under itself")
    yield from txn.delete(INODES_TABLE, src_pk, partition_key=src_parent.id)
    new_row = src_row.with_(parent_id=dst_parent.id, name=dst_name, mtime_ms=ctx.now())
    yield from txn.write(INODES_TABLE, dst_pk, new_row, partition_key=dst_parent.id)
    ctx.dir_cache.pop((src_parent.id, src_name), None)
    _cache_uncommitted(ctx, txn, new_row)
    return new_row.id


def chmod(ctx: FsContext, txn: NdbTransaction, path: str, permission: int):
    parent, name = yield from resolve_parent(txn, path, ctx.dir_cache)
    row = yield from _lock_slot(txn, parent.id, name)
    if row is None:
        raise FileNotFoundFsError(f"{path} does not exist")
    yield from txn.write(
        INODES_TABLE, row.pk, row.with_(permission=permission, mtime_ms=ctx.now()),
        partition_key=parent.id,
    )


def set_replication(ctx: FsContext, txn: NdbTransaction, path: str, replication: int):
    if replication < 1:
        raise FsError("replication must be >= 1")
    parent, name = yield from resolve_parent(txn, path, ctx.dir_cache)
    row = yield from _lock_slot(txn, parent.id, name)
    if row is None:
        raise FileNotFoundFsError(f"{path} does not exist")
    if row.is_dir:
        raise FsError(f"{path} is a directory")
    yield from txn.write(
        INODES_TABLE, row.pk, row.with_(replication=replication), partition_key=parent.id
    )


def add_block(ctx: FsContext, txn: NdbTransaction, path: str, client: str = ""):
    """Allocate the next block of a file under construction.

    Placement is delegated to the block storage layer's policy (AZ-aware in
    HopsFS-CL, Section IV-C).  Returns the new :class:`BlockRow`.
    """
    parent, name = yield from resolve_parent(txn, path, ctx.dir_cache)
    row = yield from _lock_slot(txn, parent.id, name)
    if row is None:
        raise FileNotFoundFsError(f"{path} does not exist")
    if row.is_dir or not row.under_construction:
        raise FsError(f"{path} is not under construction")
    lease = yield from txn.read(LEASES_TABLE, row.id, lock=LockMode.SHARED)
    if lease is None or (client and lease.holder != client):
        raise LeaseExpiredError(f"no valid lease on {path} for {client!r}")
    locations = ctx.place_block(client, row.replication, ())
    block = BlockRow(
        block_id=ctx.ids.next_block_id(),
        inode_id=row.id,
        index=len(row.block_ids),
        size=0,
        locations=tuple(locations),
    )
    yield from txn.write(BLOCKS_TABLE, block.block_id, block, partition_key=row.id)
    yield from txn.write(
        INODES_TABLE,
        row.pk,
        row.with_(block_ids=row.block_ids + (block.block_id,)),
        partition_key=parent.id,
    )
    return block


def abandon_block(ctx: FsContext, txn: NdbTransaction, path: str, block_id: int, client: str = ""):
    """Discard an allocated block whose write pipeline failed.

    Removes both sides of the allocation — the block row and the id's slot
    in the inode's ``block_ids`` — so a later read never chases a block
    that holds no data.  The client calls this before asking for a fresh
    block with a new pipeline.
    """
    parent, name = yield from resolve_parent(txn, path, ctx.dir_cache)
    row = yield from _lock_slot(txn, parent.id, name)
    if row is None:
        raise FileNotFoundFsError(f"{path} does not exist")
    if row.is_dir or not row.under_construction:
        raise FsError(f"{path} is not under construction")
    lease = yield from txn.read(LEASES_TABLE, row.id, lock=LockMode.SHARED)
    if lease is None or (client and lease.holder != client):
        raise LeaseExpiredError(f"no valid lease on {path} for {client!r}")
    if block_id not in row.block_ids:
        # Retried abandon after the first attempt committed: nothing to do.
        return row.id
    yield from txn.delete(BLOCKS_TABLE, block_id, partition_key=row.id)
    yield from txn.write(
        INODES_TABLE,
        row.pk,
        row.with_(block_ids=tuple(b for b in row.block_ids if b != block_id)),
        partition_key=parent.id,
    )
    return row.id


def complete_file(ctx: FsContext, txn: NdbTransaction, path: str, size: int, client: str = ""):
    """Close a file under construction and release its lease."""
    parent, name = yield from resolve_parent(txn, path, ctx.dir_cache)
    row = yield from _lock_slot(txn, parent.id, name)
    if row is None:
        raise FileNotFoundFsError(f"{path} does not exist")
    if not row.under_construction:
        raise FsError(f"{path} is not under construction")
    yield from txn.write(
        INODES_TABLE,
        row.pk,
        row.with_(under_construction=False, size=size, mtime_ms=ctx.now()),
        partition_key=parent.id,
    )
    yield from txn.delete(LEASES_TABLE, row.id)
    return row.id
