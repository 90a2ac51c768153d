"""The CephFS metadata server (MDS).

The model captures what the paper's evaluation exercises:

* **single-threadedness** — all request handling runs behind one core
  (the MDS global lock, Section VI), capping each rank at a few thousand
  requests per second;
* **journaling** — every mutation appends to the MDS journal, which is
  periodically flushed to replicated RADOS objects on the OSDs, consuming
  MDS CPU and OSD disk (Figs. 5, 12d);
* **capabilities** — read results grant the client a capability; the MDS
  tracks holders and must notify them when an inode changes, which is the
  cost of the kernel cache (Section V-A-b3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from ..errors import (
    DirectoryNotEmptyError,
    FileAlreadyExistsError,
    FileNotFoundFsError,
    FsError,
    HostUnreachableError,
    NotDirectoryError,
)
from ..net.network import Message, Network
from ..net.server import Server
from ..sim import Environment
from ..sim.resources import CorePool
from ..types import AzId, NodeAddress, OpType
from .config import CephConfig

__all__ = ["Mds", "MdsInode"]

# Read ops whose reply grants the client a capability on the inode.
_GRANTING = frozenset({OpType.READ_FILE, OpType.STAT, OpType.EXISTS, OpType.LIST_DIR})


class MdsInode(NamedTuple):
    """Metadata snapshot returned to clients (and cached by them); an
    immutable value like ``hopsfs.metadata``'s rows."""

    id: int
    path: str
    is_dir: bool
    size: int = 0
    mtime_ms: float = 0.0
    version: int = 1

    def with_(self, **changes) -> "MdsInode":
        return self._replace(**changes)


@dataclass
class _Shard:
    """The namespace fragment this MDS is authoritative for."""

    inodes: dict[str, MdsInode] = field(default_factory=dict)
    children: dict[str, set] = field(default_factory=dict)


class Mds(Server):
    """One MDS rank."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        cluster,
        addr: NodeAddress,
        az: AzId,
        rank: int,
    ):
        super().__init__(env, network, addr, az)
        self.cluster = cluster
        self.config: CephConfig = cluster.config
        self.rank = rank
        # The MDS global lock: one core for everything.
        self.cpu = CorePool(env, 1, name=f"{addr}:mds")
        self.shard = _Shard()
        # inode path -> set of client addresses holding a capability
        self.capabilities: dict[str, set] = {}
        self.journal_pending_bytes = 0
        self.journal_flushes = 0
        self.ops_served = 0
        self.cache_grants = 0
        self._ids = iter(range(10_000_000 * (rank + 1), 10_000_000 * (rank + 2)))

    # ------------------------------------------------------------------ life
    def _on_start(self) -> None:
        self.spawn_loop("journal", self._journal_loop)

    def _on_restart(self) -> None:
        """Rejoin as an empty standby after a crash.

        The in-memory shard died with the process; any subtrees this rank was
        authoritative for were failed over (journal replay onto a standby) by
        the cluster's failover monitor, so the restarted daemon comes back
        with a clean cache rather than resurrecting stale inodes.
        """
        self.shard = _Shard()
        self.capabilities = {}
        self.journal_pending_bytes = 0

    # -------------------------------------------------------------- namespace
    def load(self, path: str, parent: str, name: str, is_dir: bool) -> MdsInode:
        """Preload one inode (namespace installation, no protocol): ``path``
        is ``name`` in directory ``parent``, which this rank serves."""
        inode = MdsInode(next(self._ids), path, is_dir)
        self.shard.inodes[path] = inode
        self.shard.children.setdefault(parent, set()).add(name)
        return inode

    # ---------------------------------------------------------------- serving
    def _on_message(self, msg: Message) -> None:
        if msg.kind != "mds_op":
            raise FsError(f"{self.addr}: unknown MDS message {msg.kind!r}")
        self._requests[msg] = None
        self.env.call_soon(self._begin, msg)

    # A request is a callback chain to its end.  ``_begin`` opens its span
    # and queues the op on the core; the job's completion runs ``_run``.
    # Each capability revoke and the capability grant is one more core job
    # whose completion runs the next stage (``_revoked``, ``_granted``),
    # where a task waiting on that job would resume.  ``_end`` ends the
    # chain where the task would end.  A stage whose request its life's
    # table no longer holds (a crash dropped it) does nothing but end it.
    def _begin(self, msg: Message) -> None:
        if msg not in self._requests:
            return self._end(msg, None, False)
        op = msg.payload[0]
        obs = self.env.obs
        span = None if obs is None else obs.tracer.start(
            "mds.handle", parent=msg.extra.get("span_id"), host=str(self.addr), az=self.az,
            op=op.value, rank=self.rank)
        # Everything contends on the single MDS thread; journaled
        # namespace mutations are substantially heavier than lookups.
        cfg = self.config
        cost = cfg.mds_mutation_cost_ms if op.mutates else cfg.mds_op_cost_ms
        self.cpu.call(cost, self._run, (msg, span))

    def _run(self, arg) -> None:
        msg, span = arg
        if msg not in self._requests:
            return self._end(msg, span, False)
        op, kwargs, _client = msg.payload
        try:
            result, mutated_path = self._execute(op, kwargs)
        except FsError as exc:
            self.network.reply(msg, exc, ok=False)
            return self._end(msg, span, False)
        self.ops_served += 1
        if mutated_path is not None:
            self.journal_pending_bytes += self.config.journal_entry_bytes
            parent = mutated_path.rsplit("/", 1)[0] or "/"
            self._revoke(msg, span, result, (mutated_path, parent))
        elif op in _GRANTING and self.config.kclient_cache:
            # Grant a capability so the kernel client may cache the inode.
            self.cpu.call(self.config.mds_cap_track_cost_ms, self._granted, (msg, span, result))
        else:
            self.network.reply(msg, result, size=self.config.client_response_bytes)
            self._end(msg, span)

    def _revoke(self, msg: Message, span, result, paths: tuple) -> None:
        """Revoke every other holder's capability on each of ``paths`` in
        turn (the core pays per holder, then ``_revoked`` notifies them),
        then reply."""
        capabilities, client = self.capabilities, msg.payload[2]
        for index, path in enumerate(paths):
            holders = capabilities.pop(path, set())
            holders.discard(client)
            if holders:
                cost = self.config.mds_cap_revoke_cost_ms * len(holders)
                rest = paths[index + 1:]
                return self.cpu.call(cost, self._revoked, (msg, span, result, path, holders, rest))
        self.network.reply(msg, result, size=self.config.client_response_bytes)
        self._end(msg, span)

    def _revoked(self, arg) -> None:
        msg, span, result, path, holders, rest = arg
        if msg not in self._requests:
            return self._end(msg, span, False)
        # Sorted: revoke-message order must not depend on set iteration order.
        for holder in sorted(holders):
            self.network.send(Message(self.addr, holder, "cap_revoke", path, 96))
        self._revoke(msg, span, result, rest)

    def _granted(self, arg) -> None:
        msg, span, result = arg
        if msg not in self._requests:
            return self._end(msg, span, False)
        _op, kwargs, client = msg.payload
        self.capabilities.setdefault(kwargs["path"], set()).add(client)
        self.cache_grants += 1
        self.network.reply(msg, result, size=self.config.client_response_bytes)
        self._end(msg, span)

    def _end(self, msg: Message, span, ok: bool = True) -> None:
        """End ``msg``'s chain: out of its life's table, its span closed and
        its latency sampled with the outcome (a dropped request failed),
        then the task end."""
        requests = self._requests
        if msg in requests:
            del requests[msg]
        if span is not None:
            obs = self.env.obs
            obs.tracer.finish(span, ok=ok)
            if obs.timeseries is not None:
                now = self.env.now
                obs.timeseries.component_sample(
                    "mds.handle", str(self.addr), now - span.start_ms, ok, now)
        self.env.end_task()

    # ------------------------------------------------------------- operations
    def _execute(self, op: OpType, kwargs) -> tuple[object, Optional[str]]:
        """Run one op against the shard; returns (result, mutated_path)."""
        path = kwargs.get("path") or kwargs.get("src")
        if op is OpType.MKDIR:
            return self._create(path, is_dir=True), path
        if op is OpType.CREATE_FILE:
            return self._create(path, is_dir=False, size=len(kwargs.get("data", b""))), path
        if op in (OpType.READ_FILE, OpType.STAT):
            inode = self.shard.inodes.get(path)
            if inode is None:
                raise FileNotFoundFsError(f"{path} does not exist")
            if op is OpType.READ_FILE and inode.is_dir:
                raise FsError(f"{path} is a directory")
            return inode, None
        if op is OpType.EXISTS:
            return path in self.shard.inodes, None
        if op is OpType.LIST_DIR:
            inode = self.shard.inodes.get(path)
            if path != "/" and inode is None:
                raise FileNotFoundFsError(f"{path} does not exist")
            if inode is not None and not inode.is_dir:
                raise NotDirectoryError(f"{path} is not a directory")
            return sorted(self.shard.children.get(path, set())), None
        if op is OpType.ADD_BLOCK or op is OpType.COMPLETE_FILE:
            raise FsError(f"MDS does not support {op}")
        if op is OpType.DELETE_FILE:
            return self._delete(path, kwargs.get("recursive", False)), path
        if op is OpType.RENAME:
            return self._rename(kwargs["src"], kwargs["dst"]), kwargs["src"]
        if op is OpType.CHMOD:
            inode = self.shard.inodes.get(path)
            if inode is None:
                raise FileNotFoundFsError(f"{path} does not exist")
            self.shard.inodes[path] = inode.with_(version=inode.version + 1)
            return True, path
        raise FsError(f"MDS does not support {op}")

    def _parent_of(self, path: str) -> str:
        return path.rsplit("/", 1)[0] or "/"

    def _create(self, path: str, is_dir: bool, size: int = 0) -> MdsInode:
        if path in self.shard.inodes:
            raise FileAlreadyExistsError(f"{path} already exists")
        parent = self._parent_of(path)
        if parent != "/":
            # The parent may live on another rank's shard (lookup modelling
            # shortcut for Ceph's path traversal through the authority).
            owner_rank = self.cluster.partitioner.rank_of(parent)
            owner = self.cluster.mds_list[owner_rank % len(self.cluster.mds_list)]
            parent_inode = owner.shard.inodes.get(parent) or self.shard.inodes.get(parent)
            if parent_inode is None:
                raise FileNotFoundFsError(f"{parent} does not exist")
            if not parent_inode.is_dir:
                raise NotDirectoryError(f"{parent} is not a directory")
        inode = MdsInode(
            id=next(self._ids),
            path=path,
            is_dir=is_dir,
            size=size,
            mtime_ms=self.env.now,
        )
        self.shard.inodes[path] = inode
        self.shard.children.setdefault(parent, set()).add(path.rsplit("/", 1)[1])
        if is_dir:
            # Subtree export: the new directory becomes the root of its own
            # subtree, so its inode is mirrored to the authoritative rank
            # (modelling shortcut for Ceph's subtree migration).
            self.cluster.mirror_dir(inode)
        return inode

    def _delete(self, path: str, recursive: bool) -> int:
        inode = self.shard.inodes.get(path)
        if inode is None:
            raise FileNotFoundFsError(f"{path} does not exist")
        removed = 0
        if inode.is_dir:
            owner = self.cluster.mds_for_dir(path)
            kids = owner.shard.children.get(path, set())
            if kids and not recursive:
                raise DirectoryNotEmptyError(f"{path} is not empty")
            for name in list(kids):
                removed += owner._delete(f"{path}/{name}", recursive)
        if inode.is_dir:
            self.cluster.unmirror_dir(path)
        del self.shard.inodes[path]
        self.shard.children.pop(path, None)
        parent = self._parent_of(path)
        self.shard.children.get(parent, set()).discard(path.rsplit("/", 1)[1])
        return removed + 1

    def _rename(self, src: str, dst: str) -> MdsInode:
        if self.cluster.partitioner.rank_of(dst) != self.rank:
            raise FsError("cross-MDS rename not supported by this model")
        inode = self.shard.inodes.get(src)
        if inode is None:
            raise FileNotFoundFsError(f"{src} does not exist")
        if dst in self.shard.inodes:
            raise FileAlreadyExistsError(f"{dst} already exists")
        if inode.is_dir and self.shard.children.get(src):
            raise FsError("directory rename with children not modelled for CephFS")
        del self.shard.inodes[src]
        self.shard.children.get(self._parent_of(src), set()).discard(src.rsplit("/", 1)[1])
        moved = inode.with_(path=dst, version=inode.version + 1, mtime_ms=self.env.now)
        self.shard.inodes[dst] = moved
        self.shard.children.setdefault(self._parent_of(dst), set()).add(dst.rsplit("/", 1)[1])
        return moved

    # ---------------------------------------------------------------- journal
    def _journal_loop(self):
        """Flush the journal to replicated OSD objects periodically."""
        seq = 0
        while True:
            yield self.env.timeout(self.config.journal_flush_interval_ms)
            if self.journal_pending_bytes == 0:
                continue
            nbytes = self.journal_pending_bytes
            self.journal_pending_bytes = 0
            seq += 1
            obs = self.env.obs
            span = None
            if obs is not None:
                span = obs.tracer.start(
                    "mds.journal_flush", host=str(self.addr), rank=self.rank,
                    nbytes=nbytes,
                )
            # Journal flushing consumes the single MDS thread too.
            yield self.cpu.submit(self.config.journal_flush_cpu_ms)
            targets = self.cluster.journal_targets(self.rank, seq)
            calls = []
            for osd in targets:
                calls.append(
                    self.network.call(
                        self.addr,
                        osd,
                        "osd_write",
                        (f"mds{self.rank}.journal.{seq}", nbytes),
                        size=nbytes,
                        parent_span=span,
                    )
                )
            try:
                yield self.env.all_of(calls)
            except (HostUnreachableError, FsError):
                pass  # OSD hiccup: Ceph would retry/remap; we keep serving
            self.journal_flushes += 1
            if span is not None:
                obs.tracer.finish(span)
