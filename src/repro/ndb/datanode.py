"""The NDB datanode: Table II thread pools, LDM execution and the TC.

One :class:`NdbDatanode` hosts:

* the **LDM threads** (12 by default) owning this node's fragment replicas,
  with partitions statically mapped to LDM threads;
* the **TC threads** (7) coordinating transactions started here, running
  the linear-2PC commit protocol of Figure 2 — including the paper's
  delayed-ACK variant for Read Backup / Fully Replicated tables, where the
  client ACK waits for the Completed messages (message 14 instead of 10);
* RECV/SEND/REP/IO/MAIN threads for message handling, replication (redo
  shipping) and disk I/O, matching the paper's CPU accounting (Fig. 11).
  No protocol step waits on REP, IO or the redo/checkpoint disk, so their
  work is charged (``CorePool.charge``, ``Disk.append``), never scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Hashable, Optional

from ..errors import (
    NdbError,
    NoDatanodesError,
    NodeFailedError,
    TransactionAbortedError,
)
from ..net.network import Message, Network
from ..net.server import Server
from ..sim import Environment, Event
from ..types import AzId, NodeAddress
from .locks import LockTable
from .messages import (
    ChainCommit,
    ChainPrepare,
    CommittedMsg,
    CompletedMsg,
    CompleteMsg,
    HeartbeatMsg,
    LdmReadReq,
    LdmScanReq,
    PrepareFailedMsg,
    PreparedMsg,
    ReleaseLocksMsg,
    TcCommitReq,
    TcReadReq,
    TcScanReq,
    TcWriteReq,
)
from .schema import LockMode
from .store import FragmentStore
from .tc_selection import select_read_replica
from ..sim.resources import CorePool, Disk

__all__ = ["NdbDatanode"]

_CHAIN_OVERHEAD_BYTES = 96
_NO_REPLY = object()  # ``_done``'s default: end the chain without a reply


@dataclass(slots=True)
class _RowOp:
    """TC-side state of one row write inside a transaction."""

    seq: int
    table: str
    pk: Hashable
    partition_key: Hashable
    partition: int
    value: Any
    chain: tuple[NodeAddress, ...]
    want_completed: bool
    prepared: Optional[Event] = None
    committed: Optional[Event] = None
    completed_pending: int = 0
    all_completed: Optional[Event] = None


@dataclass(slots=True)
class _TcTxn:
    """TC-side state of one open transaction."""

    txid: int
    client_az: AzId
    ops: dict[int, _RowOp] = field(default_factory=dict)
    # (table, pk) -> the op of its last write, in first-write order: a row
    # written twice has one prepared version, committed once.
    rows: dict[tuple, _RowOp] = field(default_factory=dict)
    # Nodes where LDM threads hold read locks on our behalf -> row keys.
    # Keys are stored as an insertion-ordered dict-of-None (not a set) so
    # that release order — and therefore message order — is deterministic
    # regardless of PYTHONHASHSEED.
    read_locks: dict[NodeAddress, dict] = field(default_factory=dict)
    next_seq: int = 0
    finished: bool = False
    last_active_ms: float = 0.0


class NdbDatanode(Server):
    """One NDB datanode process."""

    def __init__(self, env: Environment, network: Network, cluster, addr: NodeAddress, az: AzId):
        super().__init__(env, network, addr, az)
        self.cluster = cluster
        config = cluster.config
        costs = config.costs
        threads = config.threads
        self.costs = costs
        self.shutdown_reason: Optional[str] = None

        self.store = FragmentStore()
        self.locks = LockTable(env, deadlock_timeout_ms=config.deadlock_timeout_ms)

        # Table II thread pools.  LDM threads are individual single-core
        # pools because partitions are pinned to specific LDM threads.
        self.ldm_pools = [
            CorePool(env, 1, name=f"{addr}:ldm{i}") for i in range(threads.ldm)
        ]
        self.tc_pool = CorePool(env, threads.tc, name=f"{addr}:tc")
        self.recv_pool = CorePool(env, threads.recv, name=f"{addr}:recv")
        self.send_pool = CorePool(env, threads.send, name=f"{addr}:send")
        self.rep_pool = CorePool(env, threads.rep, name=f"{addr}:rep")
        self.io_pool = CorePool(env, threads.io, name=f"{addr}:io")
        self.main_pool = CorePool(env, threads.main, name=f"{addr}:main")
        self.disk = Disk(env, config.disk_bandwidth_bytes_per_ms, name=f"{addr}:disk")

        self.txns: dict[int, _TcTxn] = {}
        # Txids the inactivity reaper rolled back.  A later operation on
        # such a txid must fail (real NDB: "unknown transaction"), not
        # silently re-create TC state — the reaper already released the
        # transaction's locks, so resurrecting it would let two
        # transactions commit against the same exclusively-read rows.
        self._reaped: dict[int, None] = {}
        # Which TC is behind each txid holding locks/prepared rows here.
        # When that TC dies, its release/complete messages may have died
        # on its send queue — the cluster take-over sweeps these txids so
        # their locks cannot leak (NDB's take-over protocol, LDM side).
        self._lock_tc: dict[int, NodeAddress] = {}
        # Txids whose ChainCommit passed through this node as a backup, and
        # when: local evidence that the TC reached the commit point.  The
        # take-over protocol rolls such transactions *forward* (their
        # client may already hold a success reply), everything else back.
        self._commit_decided: dict[int, float] = {}
        self.last_heartbeat_from: dict[NodeAddress, float] = {}
        self._rng = cluster.rng.stream(f"ndbd:{addr}")
        self._send_now_cb = self._send_now
        # Partitions are pinned to LDM threads.  A node-group member holds
        # the partitions congruent to its group index, and is *primary* for
        # every R-th of those; dividing by groups*R decorrelates the thread
        # index from both patterns so all LDM threads serve primary load.
        self._ldm_stride = config.num_node_groups * config.replication

    # ------------------------------------------------------------------ setup
    def _on_start(self) -> None:
        self.spawn_loop("txn-reaper", self._inactivity_reaper)
        self.spawn_loop("gcp", self._checkpoint_loop)

    def shutdown(self, reason: str) -> None:
        """Stop serving; used for both crashes and arbitration losses."""
        if self.running:
            self.shutdown_reason = reason
        super().shutdown()

    def _on_restart(self) -> None:
        # All volatile state died with the process.
        self.shutdown_reason = None
        self.store = FragmentStore()
        self.locks = LockTable(
            self.env, deadlock_timeout_ms=self.cluster.config.deadlock_timeout_ms
        )
        for txid in self.txns:
            self.cluster.unregister_txn(txid)
        self.txns.clear()
        self.last_heartbeat_from.clear()

    def _ldm_pool_for(self, partition: int) -> CorePool:
        pools = self.ldm_pools
        return pools[partition // self._ldm_stride % len(pools)]

    # --------------------------------------------------------------- dispatch
    # A message is a callback chain to its end: delivery -> RECV -> its
    # handler's stages.  A hand-off to a Table II thread is a
    # ``CorePool.call(cost, fn, arg)``; a wait on anything else (a lock
    # grant, an RPC reply, a chain ack) is the next stage, a ``partial``
    # registered with ``Event.add_callback``, which reads the settled
    # event's ``_ok``/``_value`` (every failure such an event carries is an
    # ``NdbError`` or a ``HostUnreachableError``).  The last stage ends the
    # chain, consuming the task end it stands for: ``_done``, or
    # ``env.end_task()`` for a chain that replies to nobody.
    def _on_message(self, msg: Message) -> None:
        self.recv_pool.call(self.costs.recv_msg, self._received, msg)

    # RPC-shaped message kinds that get a server-side span when tracing.
    # Chain/ack traffic is fire-and-forget and already visible through the
    # TC span's duration; tracing it individually would double the span
    # volume for little attribution value.
    _TRACED_KINDS = frozenset(
        {"tc_read", "tc_scan", "tc_write", "tc_commit", "tc_abort", "ldm_read", "ldm_scan"}
    )

    def _received(self, msg: Message) -> None:
        """RECV done: run the message's handler, the chain's next stage.  A
        node that went down during RECV drops it; an unknown kind fails the
        run."""
        env = self.env
        if not self.running:
            env.end_task()
            return
        handler = self._HANDLERS.get(msg.kind)
        if handler is None:
            raise NdbError(f"{self.addr}: unknown message kind {msg.kind!r}")
        obs = env.obs
        if obs is not None and msg.kind in self._TRACED_KINDS:
            # Stashed so the handler can parent replica round-trips and
            # lock waits under this server span; it ends with the message.
            msg.extra = {**msg.extra, "server_span": obs.tracer.start(
                f"ndb.{msg.kind}", parent=msg.extra.get("span_id"),
                host=str(self.addr), az=self.az,
            )}
        handler(self, msg)

    def _done(self, msg: Message, payload: Any = _NO_REPLY, ok: bool = True, size: int = 128):
        """End ``msg``'s callback chain: reply with ``payload`` (the SEND
        thread puts the reply on the wire), close its server span, consume
        the task end."""
        env = self.env
        if payload is not _NO_REPLY:
            self.send_pool.call(
                self.costs.send_msg, self._send_now_cb,
                self.network.reply_message(msg, payload, ok, size),
            )
        if env.obs is not None and "server_span" in msg.extra:
            env.obs.tracer.finish(msg.extra["server_span"])
        env.end_task()

    # _send/_done run once per outgoing message: the message is built now
    # and handed to the SEND thread, which puts it on the wire through a
    # method bound once per node.
    def _send(self, dst: NodeAddress, kind: str, payload: Any, size: int):
        """Charge the SEND thread, then put the message on the wire."""
        self.send_pool.call(
            self.costs.send_msg, self._send_now_cb, Message(self.addr, dst, kind, payload, size)
        )

    def _send_now(self, message: Message) -> None:
        if self.running:
            self.network.send(message)

    def _abort(self, request: Message, exc: Exception) -> None:
        """End ``request``'s chain with an abort giving ``exc`` as the reason."""
        self._done(request, TransactionAbortedError(str(exc)), ok=False)

    # ------------------------------------------------------------- TC helpers
    def _txn(self, txid: int, client_az: AzId) -> _TcTxn:
        txn = self.txns.get(txid)
        if txn is None:
            txn = _TcTxn(txid, client_az)
            self.txns[txid] = txn
            self.cluster.register_txn(txid, self.addr)
        txn.last_active_ms = self.env.now
        return txn

    def _inactivity_reaper(self):
        """TransactionInactiveTimeout: abort client-abandoned transactions.

        A client that dies mid-transaction leaves prepared rows and locks
        behind; NDB's inactivity timeout rolls them back (Section II-B2).
        """
        timeout = self.cluster.config.inactive_timeout_ms
        interval = max(1.0, timeout / 2)
        while True:
            yield self.env.timeout(interval)
            now = self.env.now
            for txid, txn in list(self.txns.items()):
                if txn.finished or now - txn.last_active_ms <= timeout:
                    continue
                self._reaped[txid] = None
                self._abort_cleanup(txn)
                self._drop_txn(txid)
            while len(self._reaped) > 65536:
                del self._reaped[next(iter(self._reaped))]

    def _checkpoint_loop(self):
        """Global checkpoint: periodic redo/checkpoint flush to disk.

        Nothing waits on the flush, so the IO thread and the disk are
        charged and only the interval timer is scheduled."""
        config = self.cluster.config
        while True:
            yield self.env.timeout(config.global_checkpoint_interval_ms)
            self.io_pool.charge(self.costs.send_msg)
            self.disk.append(config.checkpoint_bytes)

    def _drop_txn(self, txid: int) -> None:
        txn = self.txns.pop(txid, None)
        if txn is not None:
            txn.finished = True
        self.cluster.unregister_txn(txid)

    def _reject_reaped(self, msg: Message, txid: int) -> bool:
        """End ``msg``'s chain with a failure if the reaper rolled ``txid`` back."""
        if txid not in self._reaped:
            return False
        self._done(
            msg, TransactionAbortedError(f"txn {txid} aborted by inactivity timeout"), ok=False
        )
        return True

    def _remember_lock_tc(self, txid: int, tc: NodeAddress) -> None:
        """Record which TC is behind a txid that holds state on this node."""
        self._lock_tc[txid] = tc
        while len(self._lock_tc) > 65536:
            del self._lock_tc[next(iter(self._lock_tc))]

    # ------------------------------------------------------------- TC: reads
    # A lock-free read or scan is TC -> LDM -> reply, all thread stages; a
    # remote LDM's RPC reply and a locked read's lock grant are waited stages.
    def _tc_read(self, msg: Message) -> None:
        self.tc_pool.call(self.costs.tc_step, self._tc_read_tc, msg)

    def _tc_read_tc(self, msg: Message) -> None:
        req: TcReadReq = msg.payload
        if self._reject_reaped(msg, req.txid):
            return
        table = self.cluster.schema.table(req.table)
        pmap = self.cluster.partition_map
        partition = pmap.partition_of(req.partition_key)
        try:
            if req.lock is LockMode.NONE:
                node, role = select_read_replica(
                    self.network.topology,
                    pmap,
                    table,
                    partition,
                    self.addr,
                    self.cluster.config.az_aware,
                    self._rng,
                )
            else:
                replicas = pmap.replicas(partition, table.fully_replicated)
                node, role = replicas.primary, 0
        except NoDatanodesError as exc:
            return self._abort(msg, exc)
        ldm_req = LdmReadReq(
            req.txid, req.table, req.pk, req.partition_key, partition, req.lock,
            role, req.client_az,
        )
        if req.lock is not LockMode.NONE:
            txn = self._txn(req.txid, req.client_az)  # refreshes last_active
            txn.read_locks.setdefault(node, {})[(req.table, req.pk)] = None
        if node != self.addr:
            self._forward(msg, node, "ldm_read", ldm_req, table.row_bytes)
        elif req.lock is not LockMode.NONE:
            self._read_locked(msg, ldm_req, self.addr)
        else:
            self._ldm_pool_for(partition).call(self.costs.ldm_read, self._read_row, (msg, ldm_req))

    def _forward(self, msg: Message, node: NodeAddress, kind: str, ldm_req, row_bytes: int):
        """A read or scan the TC hands to ``node``'s LDM: the chain goes on
        at the RPC's reply."""
        server_span = msg.extra.get("server_span") if self.env.obs is not None else None
        self.network.call(
            self.addr, node, kind, ldm_req, size=_CHAIN_OVERHEAD_BYTES, parent_span=server_span,
        ).add_callback(partial(self._forwarded, msg, kind == "ldm_scan", row_bytes))

    def _forwarded(self, msg: Message, scan: bool, row_bytes: int, reply: Event) -> None:
        value = reply._value
        if not reply._ok:
            return self._abort(msg, value)
        self._done(msg, value, size=max(128, len(value) * row_bytes) if scan else row_bytes)

    def _tc_scan(self, msg: Message) -> None:
        self.tc_pool.call(self.costs.tc_step, self._tc_scan_tc, msg)

    def _tc_scan_tc(self, msg: Message) -> None:
        req: TcScanReq = msg.payload
        if self._reject_reaped(msg, req.txid):
            return
        table = self.cluster.schema.table(req.table)
        pmap = self.cluster.partition_map
        partition = pmap.partition_of(req.partition_key)
        try:
            node, role = select_read_replica(
                self.network.topology,
                pmap,
                table,
                partition,
                self.addr,
                self.cluster.config.az_aware,
                self._rng,
            )
        except NoDatanodesError as exc:
            return self._abort(msg, exc)
        ldm_req = LdmScanReq(
            req.txid, req.table, req.partition_key, partition, role, req.client_az
        )
        if node == self.addr:
            return self._ldm_scan(msg, ldm_req)
        self._forward(msg, node, "ldm_scan", ldm_req, table.row_bytes)

    # ------------------------------------------------------------ TC: writes
    def _tc_write(self, msg: Message) -> None:
        self.tc_pool.call(self.costs.tc_step, self._tc_write_tc, msg)

    def _tc_write_tc(self, msg: Message) -> None:
        req: TcWriteReq = msg.payload
        if self._reject_reaped(msg, req.txid):
            return
        table = self.cluster.schema.table(req.table)
        pmap = self.cluster.partition_map
        partition = pmap.partition_of(req.partition_key)
        txn = self._txn(req.txid, req.client_az)
        try:
            replicas = pmap.replicas(partition, table.fully_replicated)
        except NoDatanodesError as exc:
            return self._abort(msg, exc)
        seq = txn.next_seq
        txn.next_seq = seq + 1
        chain = replicas.chain
        op = txn.ops[seq] = txn.rows[(req.table, req.pk)] = _RowOp(
            seq, req.table, req.pk, req.partition_key, partition, req.value, chain,
            table.read_backup or table.fully_replicated, self.env.event(),
        )
        self._dispatch_chain_prepare(
            ChainPrepare(
                req.txid, seq, req.table, req.pk, req.partition_key, partition,
                req.value, chain, 0, self.addr,
            )
        )
        op.prepared.add_callback(partial(self._tc_write_prepared, msg))

    def _tc_write_prepared(self, msg: Message, prepared: Event) -> None:
        if prepared._ok:
            self._done(msg, True)
        else:
            self._abort(msg, prepared._value)

    def _dispatch_chain_prepare(self, prepare: ChainPrepare) -> None:
        target = prepare.chain[prepare.hop]
        size = _CHAIN_OVERHEAD_BYTES + self.cluster.schema.table(prepare.table).row_bytes
        if target == self.addr:
            self._prepare_hop(prepare)
        else:
            self._send(target, "chain_prepare", prepare, size)

    # ---------------------------------------------------------- LDM: chains
    # A prepare hop goes on at its row lock's grant, then is an LDM stage; a
    # commit or complete hop is an LDM stage.  A hop to this node skips the
    # wire.  None replies: each ends with ``env.end_task()``.
    def _chain_prepare(self, msg: Message) -> None:
        self._prepare_hop(msg.payload)

    def _prepare_hop(self, cp: ChainPrepare) -> None:
        if not self.running or cp.txid in self._reaped:
            # Down, or the TC died and the rollback already ran here.
            return self.env.end_task()
        self._remember_lock_tc(cp.txid, cp.tc)
        # NDB locks the row on the primary replica first, then on the backup
        # replicas (Section II-B2) — the chain order guarantees exactly that.
        # Backup locks are released by the Complete message.
        self.locks.acquire(cp.txid, (cp.table, cp.pk), LockMode.EXCLUSIVE).add_callback(
            partial(self._prepare_locked, cp)
        )

    def _prepare_locked(self, cp: ChainPrepare, grant: Event) -> None:
        if grant._ok:
            self._ldm_pool_for(cp.partition).call(self.costs.ldm_prepare, self._prepare_ldm, cp)
            return
        self._send(cp.tc, "prepare_failed", PrepareFailedMsg(cp.txid, cp.seq, str(grant._value)),
                   size=128)
        self.env.end_task()

    def _prepare_ldm(self, cp: ChainPrepare) -> None:
        if not self.running:
            pass
        elif cp.txid in self._reaped:
            # Rolled back while we queued for the lock: let go of it.
            self.locks.release_all(cp.txid)
        else:
            self.store.prepare(cp.txid, cp.table, cp.pk, cp.partition_key, cp.value)
            if cp.hop == len(cp.chain) - 1:
                self._send(cp.tc, "prepared", PreparedMsg(cp.txid, cp.seq), size=128)
            else:
                hop = cp.hop + 1
                nxt = ChainPrepare(
                    cp.txid, cp.seq, cp.table, cp.pk, cp.partition_key, cp.partition,
                    cp.value, cp.chain, hop, cp.tc,
                )
                size = _CHAIN_OVERHEAD_BYTES + self.cluster.schema.table(cp.table).row_bytes
                self._send(cp.chain[hop], "chain_prepare", nxt, size)
        self.env.end_task()

    def _chain_commit(self, msg: Message) -> None:
        self._commit_hop(msg.payload)

    def _commit_hop(self, cc: ChainCommit) -> None:
        if not self.running or cc.txid in self._reaped:
            self.env.end_task()
        else:
            self._ldm_pool_for(cc.partition).call(self.costs.ldm_commit, self._commit_ldm, cc)

    def _commit_ldm(self, cc: ChainCommit) -> None:
        if not self.running or cc.txid in self._reaped:
            # The take-over already settled this transaction (roll-forward
            # applied the prepared version, rollback dropped it): a late
            # ChainCommit must not re-apply or forward.
            pass
        elif cc.hop == 0:
            # Primary: apply, release the row lock, report Committed.
            self.store.commit_prepared(cc.txid, cc.table, cc.pk)
            self.locks.release(cc.txid, (cc.table, cc.pk))
            self._write_redo()
            self._send(cc.tc, "committed", CommittedMsg(cc.txid, cc.seq), size=128)
        else:
            # Backup hop: the pass-through is commit-point evidence the
            # take-over protocol consults if the TC dies before Complete.
            self._commit_decided[cc.txid] = self.env.now
            while len(self._commit_decided) > 65536:
                del self._commit_decided[next(iter(self._commit_decided))]
            hop = cc.hop - 1
            nxt = ChainCommit(
                cc.txid, cc.seq, cc.table, cc.pk, cc.partition, cc.chain, hop, cc.tc
            )
            target = cc.chain[hop]
            if target == self.addr:
                self._commit_hop(nxt)
            else:
                self._send(target, "chain_commit", nxt, size=128)
        self.env.end_task()

    def _complete(self, msg: Message) -> None:
        self._complete_hop(msg.payload)

    def _complete_hop(self, cm: CompleteMsg) -> None:
        # The Complete applies the prepared version on the backup replica and
        # frees transaction memory (Section II-B2).
        if self.running:
            self._ldm_pool_for(cm.partition).call(self.costs.ldm_commit, self._complete_ldm, cm)
        else:
            self.env.end_task()

    def _complete_ldm(self, cm: CompleteMsg) -> None:
        if self.running:
            try:
                self.store.commit_prepared(cm.txid, cm.table, cm.pk)
            except NdbError:
                pass  # already applied (e.g. retried Complete)
            self.locks.release(cm.txid, (cm.table, cm.pk))
            if not self.locks.holds_any(cm.txid):
                self._lock_tc.pop(cm.txid, None)
                self._commit_decided.pop(cm.txid, None)
            self._write_redo()
            if cm.want_completed:
                self._send(cm.tc, "completed", CompletedMsg(cm.txid, cm.seq), size=128)
        self.env.end_task()

    def _write_redo(self) -> None:
        """Append to the redo log: the REP/IO threads and the disk are
        charged (Fig. 11 accounting).  Nothing waits on it, so no kernel
        entry is scheduled."""
        self.rep_pool.charge(self.costs.send_msg)
        self.io_pool.charge(self.costs.send_msg)
        self.disk.append(self.costs.redo_bytes_per_write)

    # ------------------------------------------------------------ TC: commit
    def _tc_commit(self, msg: Message) -> None:
        self.tc_pool.call(self.costs.tc_step, self._tc_commit_tc, msg)

    def _tc_commit_tc(self, msg: Message) -> None:
        """TC stage of a commit: a read-only one ends here, one with writes
        starts its commit chains and goes on at their acks."""
        req: TcCommitReq = msg.payload
        if self._reject_reaped(msg, req.txid):
            return
        txn = self.txns.get(req.txid)
        if txn is not None:
            txn.last_active_ms = self.env.now
        if txn is None or not txn.ops:
            # Read-only (or empty) transaction: just release read locks.
            if txn is not None:
                self._release_read_locks(txn)
                self._drop_txn(req.txid)
            return self._done(msg, True)
        ops = list(txn.rows.values())  # one per row, with its last value
        # A chain participant may have been declared failed since we
        # prepared; NDB aborts such transactions (the client retries).
        pmap = self.cluster.partition_map
        dead = [n for op in ops for n in op.chain if not pmap.is_up(n)]
        if dead:
            self._abort_cleanup(txn)
            self._drop_txn(req.txid)
            return self._done(
                msg, TransactionAbortedError(f"replica {dead[0]} failed before commit"), ok=False
            )
        for op in ops:
            op.committed = self.env.event()
            hop = len(op.chain) - 1
            commit = ChainCommit(
                req.txid, op.seq, op.table, op.pk, op.partition, op.chain, hop, self.addr
            )
            target = op.chain[hop]
            if target == self.addr:
                self._commit_hop(commit)
            else:
                self._send(target, "chain_commit", commit, size=128)
        # Strict 2PL: the commit point has been reached, read locks go now.
        self._release_read_locks(txn)
        self.env.all_of([op.committed for op in ops]).add_callback(
            partial(self._tc_committed, msg, txn, ops)
        )

    def _tc_committed(self, msg: Message, txn: _TcTxn, ops: list[_RowOp], committed: Event) -> None:
        req: TcCommitReq = msg.payload
        if not committed._ok:
            self._abort_cleanup(txn)
            self._drop_txn(req.txid)
            return self._abort(msg, committed._value)
        # Commit point reached: publish the transaction's row images on the
        # changelog so subscriber caches (listing cache) can invalidate.
        # A pure no-op with zero subscribers (listing_cache=None).
        self.cluster.changelog.publish(
            self.addr,
            [(op.table, op.pk, op.partition_key, op.value) for op in ops],
        )
        # Send Complete to every backup replica.  For Read Backup / Fully
        # Replicated tables the paper delays the client ACK until all
        # Completed messages arrive (message 14 instead of 10 in Fig. 2).
        waiters = []
        for op in ops:
            backups = op.chain[1:]
            op.completed_pending = len(backups) if op.want_completed else 0
            if op.completed_pending:
                op.all_completed = self.env.event()
                waiters.append(op.all_completed)
            for backup in backups:
                complete = CompleteMsg(
                    req.txid, op.seq, op.table, op.pk, op.partition, self.addr,
                    op.want_completed,
                )
                if backup == self.addr:
                    self._complete_hop(complete)
                else:
                    self._send(backup, "complete", complete, size=128)
        if waiters:
            self.env.all_of(waiters).add_callback(partial(self._tc_completed, msg))
        else:
            self._drop_txn(req.txid)
            self._done(msg, True)

    def _tc_completed(self, msg: Message, completed: Event) -> None:
        self._drop_txn(msg.payload.txid)
        if completed._ok:
            self._done(msg, True)
        else:
            self._abort(msg, completed._value)

    def _tc_abort(self, msg: Message) -> None:
        self.tc_pool.call(self.costs.tc_step, self._tc_abort_tc, msg)

    def _tc_abort_tc(self, msg: Message) -> None:
        txn = self.txns.get(msg.payload.txid)
        if txn is not None:
            self._abort_cleanup(txn)
            self._drop_txn(txn.txid)
        self._done(msg, True)

    def _release_read_locks(self, txn: _TcTxn) -> None:
        # Rows in the write set keep their X locks until the commit chain
        # applies them at the primary; only read-only locks go now.
        written = txn.rows
        for node, held in txn.read_locks.items():
            keys = [k for k in held if k not in written]
            if not keys:
                continue
            if node == self.addr:
                for key in keys:
                    self.locks.release(txn.txid, key)
            else:
                self._send(node, "release_locks", ReleaseLocksMsg(txn.txid, tuple(keys)), size=64)
        txn.read_locks.clear()

    def _abort_cleanup(self, txn: _TcTxn) -> None:
        """Undo prepared rows and release all locks for an aborted txn."""
        touched: dict[NodeAddress, None] = dict.fromkeys(txn.read_locks)
        for op in txn.ops.values():
            touched.update(dict.fromkeys(op.chain))
        for node in touched:
            if node == self.addr:
                self.store.abort_all(txn.txid)
                self.locks.release_all(txn.txid)
            else:
                self._send(node, "release_locks", ReleaseLocksMsg(txn.txid), size=64)
        txn.read_locks.clear()

    # ------------------------------------------------------- TC: chain acks
    def _on_ack(self, msg: Message) -> None:
        """``prepared``, ``prepare_failed``, ``committed`` or ``completed``:
        the TC stage settles the event its op's task waits on."""
        self.tc_pool.call(self.costs.tc_step, self._ack_tc, msg)

    def _ack_tc(self, msg: Message) -> None:
        ack = msg.payload
        op = self._op_for(ack.txid, ack.seq)
        kind = msg.kind
        if kind == "completed":
            if op is not None and op.all_completed is not None:
                op.completed_pending -= 1
                if op.completed_pending == 0 and not op.all_completed.triggered:
                    op.all_completed.succeed()
        elif op is not None:
            event = op.committed if kind == "committed" else op.prepared
            if event is not None and not event.triggered:
                if kind == "prepare_failed":
                    event.fail(TransactionAbortedError(ack.error))
                else:
                    event.succeed()
        self.env.end_task()

    def _op_for(self, txid: int, seq: int) -> Optional[_RowOp]:
        txn = self.txns.get(txid)
        if txn is None:
            return None
        return txn.ops.get(seq)

    # ----------------------------------------------------------- LDM: reads
    def _ldm_read(self, msg: Message) -> None:
        req: LdmReadReq = msg.payload
        if req.lock is not LockMode.NONE:
            return self._read_locked(msg, req, msg.src)
        self._ldm_pool_for(req.partition).call(self.costs.ldm_read, self._read_row, (msg, req))

    def _read_row(self, job: tuple[Message, LdmReadReq]) -> None:
        """LDM stage of a read: reply to ``msg`` with the row, as a locked
        read's transaction sees it."""
        msg, req = job
        if not self.running:
            return self._done(msg, NodeFailedError(f"{self.addr} shut down mid-read"), ok=False)
        self.cluster.read_stats.record(
            req.table, req.partition, req.role, self.addr, self.az == req.client_az)
        store = self.store
        value = (store.read(req.table, req.pk) if req.lock is LockMode.NONE
                 else store.read_for(req.txid, req.table, req.pk))
        self._done(msg, value, size=self.cluster.schema.table(req.table).row_bytes)

    def _read_locked(self, msg: Message, req: LdmReadReq, tc: NodeAddress) -> None:
        """A locked read, for the TC ``tc``: the chain goes on at the row
        lock's grant."""
        if req.txid in self._reaped:
            return self._done(
                msg, TransactionAbortedError(f"txn {req.txid} already rolled back"), ok=False)
        self._remember_lock_tc(req.txid, tc)
        # Locked reads always run on the primary replica.
        parent = msg.extra.get("server_span") if self.env.obs is not None else None
        self.locks.acquire(req.txid, (req.table, req.pk), req.lock, parent=parent).add_callback(
            partial(self._read_granted, msg, req)
        )

    def _read_granted(self, msg: Message, req: LdmReadReq, grant: Event) -> None:
        if not grant._ok:
            return self._done(msg, grant._value, ok=False)
        if req.txid in self._reaped:
            # Rolled back while we queued for the lock: let go of it.
            self.locks.release_all(req.txid)
            return self._done(
                msg, TransactionAbortedError(f"txn {req.txid} already rolled back"), ok=False)
        self._ldm_pool_for(req.partition).call(self.costs.ldm_read, self._read_row, (msg, req))

    def _ldm_scan(self, msg: Message, req: Optional[LdmScanReq] = None) -> None:
        """LDM stage of a scan: of an ``ldm_scan`` message, or of the local
        ``req`` a ``tc_scan`` message led to."""
        if req is None:
            req = msg.payload
        rows = self.store.scan(req.table, req.partition_key)
        cost = self.costs.ldm_scan_base + self.costs.ldm_scan_row * len(rows)
        self._ldm_pool_for(req.partition).call(cost, self._scanned, (msg, req, rows))

    def _scanned(self, job: tuple[Message, LdmScanReq, list]) -> None:
        msg, req, rows = job
        if not self.running:
            return self._done(msg, NodeFailedError(f"{self.addr} shut down mid-scan"), ok=False)
        self.cluster.read_stats.record(
            req.table, req.partition, req.role, self.addr, self.az == req.client_az)
        row_bytes = self.cluster.schema.table(req.table).row_bytes
        self._done(msg, rows, size=max(128, len(rows) * row_bytes))

    def _release_locks_handler(self, msg: Message) -> None:
        self._ldm_pool_for(0).call(self.costs.ldm_commit, self._release_locks, msg.payload)

    def _release_locks(self, release: ReleaseLocksMsg) -> None:
        txid = release.txid
        if release.keys is None:
            # Abort path: roll back prepared rows and drop every lock.
            self.store.abort_all(txid)
            self.locks.release_all(txid)
        else:
            for key in release.keys:
                self.locks.release(txid, key)
        # The take-over evidence goes only with the last of the transaction
        # here: a read lock released at the commit point leaves a prepared
        # row behind, whose commit the take-over must roll forward.
        if not self.locks.holds_any(txid):
            self._lock_tc.pop(txid, None)
            self._commit_decided.pop(txid, None)
        self.env.end_task()

    # ------------------------------------------------------------- heartbeat
    def _heartbeat(self, msg: Message) -> None:
        self.main_pool.call(self.costs.recv_msg, self._heard, msg.payload)

    def _heard(self, hb: HeartbeatMsg) -> None:
        self.last_heartbeat_from[hb.sender] = self.env.now
        self.env.end_task()

    # --------------------------------------------------------------- failure
    def on_peer_failed(self, dead: NodeAddress) -> None:
        """React to the cluster-level failure protocol declaring ``dead``.

        As a TC we fail pending chain events touching the dead node so that
        transactions abort promptly (clients retry).  LDM-side settlement
        of transactions the dead TC coordinated happens afterwards via the
        cluster's take-over sweep (:meth:`take_over`), which needs commit
        evidence from *all* survivors before deciding roll-forward vs
        rollback.
        """
        for txn in list(self.txns.values()):
            for op in txn.ops.values():
                if dead not in op.chain:
                    continue
                error = NodeFailedError(f"{dead} failed during transaction {txn.txid}")
                for event in (op.prepared, op.committed, op.all_completed):
                    if event is not None and not event.triggered:
                        event.fail(error)
    def txids_coordinated_by(self, dead: NodeAddress) -> set[int]:
        """Txids holding local locks/prepared rows whose TC is ``dead``.

        These include transactions the dead TC already *unregistered* —
        its release/complete messages may have died on its send queue, so
        the cluster's registered-orphan list alone would leak their locks.
        """
        return {txid for txid, tc in self._lock_tc.items() if tc == dead}

    def has_commit_evidence(self, txid: int) -> bool:
        """Did a ChainCommit for ``txid`` pass through this backup?"""
        return txid in self._commit_decided

    def completing(self):
        """``(txid, tc, decided_ms)`` of every transaction past its commit
        point here whose ``Complete`` this backup still waits for."""
        for txid, decided_ms in self._commit_decided.items():
            if txid in self._lock_tc:
                yield txid, self._lock_tc[txid], decided_ms

    def take_over(self, txid: int, commit: bool) -> None:
        """Settle local state of a transaction whose TC died.

        ``commit`` reflects the cluster-wide take-over decision: roll the
        prepared rows forward when any survivor saw the commit point
        (the client may already hold a success reply), roll them back
        otherwise.  The txid is also remembered as dead: a lock/prepare
        message the dying TC put on the wire can still arrive *after*
        this settlement, and granting it would leak a lock no one will
        ever release (the same reason the inactivity reaper records what
        it reaped).
        """
        self._reaped[txid] = None
        self._lock_tc.pop(txid, None)
        self._commit_decided.pop(txid, None)
        if commit:
            self.store.commit_all(txid)
            self._write_redo()
        else:
            self.store.abort_all(txid)
        self.locks.release_all(txid)

    # ----------------------------------------------------------- dispatch map
    _HANDLERS = {
        "tc_read": _tc_read,
        "tc_scan": _tc_scan,
        "tc_write": _tc_write,
        "tc_commit": _tc_commit,
        "tc_abort": _tc_abort,
        "ldm_read": _ldm_read,
        "ldm_scan": _ldm_scan,
        "chain_prepare": _chain_prepare,
        "chain_commit": _chain_commit,
        "complete": _complete,
        "release_locks": _release_locks_handler,
        "prepared": _on_ack,
        "prepare_failed": _on_ack,
        "committed": _on_ack,
        "completed": _on_ack,
        "heartbeat": _heartbeat,
    }
