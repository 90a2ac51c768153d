"""The stateless metadata server (NN).

Namenodes hold no namespace state: every operation is a transaction
against NDB.  The granular locking scheme lets the handler pool use all
cores of the VM (Fig. 10b).  Each NN participates in leader election; the
leader additionally monitors block-storage datanodes and drives
re-replication (Section IV-C2).
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from ..errors import (
    DeadlineExceededError,
    FsError,
    HostUnreachableError,
    NdbError,
    SafeModeError,
    ServerBusyError,
    ServerDrainingError,
    TransactionAbortedError,
)
from ..ndb.client import run_transaction
from ..ndb.schema import LockMode
from ..net.network import Message, Network
from ..net.server import Server
from ..sim import Environment
from ..sim.resources import CorePool
from ..types import AzId, NodeAddress, OpType
from . import ops
from .blocks import BlockManager, PlacementPolicy
from .config import HopsFsConfig
from .datanode import CopyBlockReq
from .dircache import DirCache
from .groupcommit import commit_part
from .leader import LeaderElectionService
from .listcache import HIT_COST_FRAC, read_front
from .metadata import BLOCKS_TABLE, INODES_TABLE, RETRY_TABLE, IdGenerator, RetryRow
from .pathlock import split_path
from .robust import Replay, RetryCache, admission_cap

__all__ = ["Namenode"]


class Namenode(Server):
    """One metadata server process.

    Its serving pipeline is built once, here, from the config: admission
    (``max_inflight``), the exactly-once ``retry_cache``, the read front
    (``listing_cache``) and the commit part (``committer``).  A path that
    is off is a part that does nothing — an unbounded cap, a read front
    that never hits, a commit part that leaves every op to its own
    transaction — so a request is one straight pipeline.

    A life's request table (``Server._requests``) holds the requests it
    admitted: message -> its ``_serve`` task, or None while the request is
    a callback chain (its handler-pool job queued, a probed hit being
    answered).  Admission and the ``inflight`` signal read its size.  A
    crash closes every task in it and in the commit part and starts a new
    table; a request its life's table no longer holds is dropped where it
    leaves the pool.
    """

    # OpType -> (ops function, path argument used for the partition hint)
    _OPS = {
        OpType.MKDIR: ops.mkdir,
        OpType.MKDIRS: ops.mkdirs,
        OpType.CREATE_FILE: ops.create_file,
        OpType.READ_FILE: ops.read_file,
        OpType.DELETE_FILE: ops.delete,
        OpType.STAT: ops.stat,
        OpType.EXISTS: ops.exists,
        OpType.LIST_DIR: ops.list_dir,
        OpType.RENAME: ops.rename,
        OpType.CHMOD: ops.chmod,
        OpType.SET_REPLICATION: ops.set_replication,
        OpType.ADD_BLOCK: ops.add_block,
        OpType.ABANDON_BLOCK: ops.abandon_block,
        OpType.COMPLETE_FILE: ops.complete_file,
    }

    def __init__(
        self,
        env: Environment,
        network: Network,
        ndb_cluster,
        config: HopsFsConfig,
        addr: NodeAddress,
        az: AzId,
        nn_id: int,
        ids: IdGenerator,
        mutation_ledger: list,
        placement_policy: PlacementPolicy = PlacementPolicy.AZ_AWARE,
        group_ledger=None,
        election: bool = True,
    ):
        super().__init__(env, network, addr, az)
        self.ndb = ndb_cluster
        self.config = config
        self.nn_id = nn_id
        self.handler_pool = CorePool(env, config.nn_cores, name=f"{addr}:handlers")
        self.api = ndb_cluster.api(addr)
        self.block_manager = BlockManager(self, placement_policy)
        self.election = LeaderElectionService(
            self, config.election_period_ms, config.election_missed_rounds
        )
        # Path-component cache: serves resolution of the read-mostly top of
        # the hierarchy and the DAT partition-key hints (FAST'17).
        self.dir_cache = DirCache(env)
        self.ctx = ops.FsContext(
            ids=ids,
            now=lambda: env.now,
            place_block=self.block_manager.place,
            dir_cache=self.dir_cache,
        )
        self.ops_served = 0
        self.ops_failed = 0
        self.ops_shed = 0
        # Graceful decommission: a draining NN stops admitting new fs ops
        # (they bounce with ServerDrainingError) but finishes what it holds.
        # Rejections are counted separately from ops_shed so the autoscaler's
        # admission-pressure signal is not polluted by its own scale-downs.
        self.draining = False
        self.ops_drain_rejected = 0
        # The pipeline's parts (see the class docstring).
        # Admission control: fs ops in flight beyond this are shed.
        self.max_inflight = admission_cap(config.robust)
        # Exactly-once replay: in-memory LRU fast path over the durable
        # retry_cache NDB rows; only robust clients send the retry ids.
        self.retry_cache = RetryCache()
        # One applied-mutation list and one batch ledger shared by every NN
        # of a deployment (the chaos exactly-once and durability-horizon
        # invariants audit them).
        self.mutation_ledger = mutation_ledger
        self.group_ledger = group_ledger
        # Commit: synchronous, or a group committer over the batch ledger.
        self.committer = commit_part(self, config.async_commit, group_ledger)
        # Read front: the pre-materialized listing/attr cache, invalidated
        # by the NDB changelog this NN subscribes to.
        self.listing_cache = read_front(config.listing_cache, self)
        self._safemode_forced = False
        # False keeps a standalone NN out of the leader protocol.
        self._election_enabled = election

    # ------------------------------------------------------------------ life
    def _on_start(self) -> None:
        self.draining = False
        if self._election_enabled:
            self.election.start()
            self.spawn_loop("dn-monitor", self._dn_monitor)

    def _on_shutdown(self) -> None:
        """The process died, and its in-flight work with it: the base has
        closed this life's tasks and loops, the commit part's drain and
        batches included (an open NDB transaction is left to the cluster's
        inactivity reaper; a request still queued on the pool is dropped
        when its job ends).  The unsettled batches settle as lost."""
        self.committer.on_crash()

    def _on_restart(self) -> None:
        """Stateless: what the process held in memory died with it."""
        # A directory renamed or deleted through a peer while this NN was
        # down would otherwise still resolve through its pre-crash entry.
        self.dir_cache.clear()
        # So did the replay LRU: a retried mutation is answered from its
        # durable retry_cache row from now on.
        self.retry_cache = RetryCache()
        # So did the read front: it flushes before serving (each changelog
        # batch dropped while this NN was down flushed it too).
        self.listing_cache.flush()

    def drain(self, grace_ms: float = 50.0, poll_ms: float = 1.0):
        """Generator: stop admitting, finish in-flight work, flush batches.

        The first half of a graceful decommission (the deployment's
        ``decommission_namenode`` follows with leader-row deregistration
        and shutdown).  ``grace_ms`` bounds the wait for in-flight ops —
        they essentially always finish (each replies to its client), so
        the bound is a hang guard, not a kill switch.  Returns True if the
        grace expired with ops still in flight.
        """
        env = self.env
        self.draining = True
        deadline = env.now + grace_ms
        while self._requests and env.now < deadline:
            yield env.timeout(poll_ms)
        forced = bool(self._requests)
        # Unlike on_crash, every open group-commit batch settles as
        # committed or aborted — never "lost" — so nothing this NN acked
        # is left in doubt.
        yield from self.committer.drain_gracefully()
        return forced

    @property
    def inflight(self) -> int:
        """Currently executing fs ops (admission + autoscaler signal)."""
        return len(self._requests)

    @property
    def is_leader(self) -> bool:
        return self.election.is_leader

    @property
    def in_safemode(self) -> bool:
        """Mutations are rejected while in safemode (reads still served)."""
        if self._safemode_forced:
            return True
        if self.config.safemode_on_startup and self.election.rounds == 0:
            return True
        return False

    def enter_safemode(self) -> None:
        self._safemode_forced = True

    def leave_safemode(self) -> None:
        self._safemode_forced = False

    # -------------------------------------------------------------- dispatch
    def _on_message(self, msg: Message) -> None:
        if msg.kind == "fs_op":
            # Admission, before anything touches the handler pool.
            if self.draining:
                # Graceful drain: bounce new work fast so robust clients
                # fail over; ops already in flight run to completion.
                # Membership queries stay served — peers still list us
                # until the leader row is dropped.
                self.ops_drain_rejected += 1
                self.network.reply(
                    msg, ServerDrainingError(f"{self.addr} draining; pick another NN"),
                    ok=False,
                )
            elif len(self._requests) >= self.max_inflight:
                # Overloaded: answer fast instead of queueing work that
                # cannot finish in time.
                self.ops_shed += 1
                self.network.reply(
                    msg, ServerBusyError(f"{self.addr} overloaded; retry with backoff"),
                    ok=False,
                )
            else:
                self._requests[msg] = None
                self.env.call_soon(self._admitted, msg)
        elif msg.kind == "get_active_nns":
            self.network.reply(msg, list(self.election.active), size=256)
        elif msg.kind == "dn_heartbeat":
            dn_addr, dn_az, block_ids = msg.payload
            self.block_manager.on_heartbeat(dn_addr, dn_az, block_ids)
        elif msg.kind == "block_received":
            block_id, dn_addr = msg.payload
            self.block_manager.on_block_received(block_id, dn_addr)
        elif msg.kind == "ndb_changelog":
            # One-way committed-mutation batch from an NDB TC; applied
            # inline (pure state mutation, no events scheduled).
            self.listing_cache.apply(msg.payload)
        else:
            raise FsError(f"{self.addr}: unknown NN message {msg.kind!r}")

    # --------------------------------------------------------------- fs ops
    # An admitted request is a callback chain until its first wait that is
    # not the handler pool: ``_admitted`` probes the read front and pays the
    # pool.  A miss's pool job starts the ``_serve`` task; a probed hit's
    # runs ``_paid``, which ends the chain for a dropped, expired or
    # memory-served hit (where its task would have ended) and starts
    # ``_serve`` for a hit whose probe no longer stands.  Either files the
    # started task under the request in its life's table (``_start_serve``).
    def _admitted(self, msg: Message) -> None:
        """Read-front probe, then the handler pool: the op's cost, or
        ``HIT_COST_FRAC`` of it for a probed hit (a hash lookup's worth of
        handler CPU instead of transaction setup and coordinator rounds)."""
        obs = self.env.obs
        span = None
        op, kwargs = msg.payload
        if obs is not None:
            # Server span: covers handler-pool queueing through reply;
            # parented under the client's rpc span via the span id the
            # request carried.
            span = obs.tracer.start(
                "nn.handle", parent=msg.extra.get("span_id"),
                host=str(self.addr), az=self.az, op=op.value,
            )
        # ``config.op_cost(op)``, inlined: per-request calls are pinned
        # (``call_budget``), and admission's table size takes one.
        cfg = self.config
        cost = cfg.op_cost_mutation_ms if op.mutates else cfg.op_cost_read_ms
        probe = self.listing_cache.lookup(op, kwargs)
        if probe is None:
            self.handler_pool.call(
                cost, self._start_serve, (msg, self._serve(msg, op, kwargs, span, False))
            )
            return
        serve_span = None
        if obs is not None:
            serve_span = obs.tracer.start(
                "nn.cache.serve", parent=span, host=str(self.addr), az=self.az, op=op.value,
            )
        self.handler_pool.call(
            cost * HIT_COST_FRAC, self._paid, (msg, probe, span, serve_span)
        )

    def _start_serve(self, arg) -> None:
        """Start a request's ``_serve`` task and, while it has not ended,
        file it under the request."""
        msg, body = arg
        task = self.env.start(body)
        requests = self._requests
        if msg in requests:
            requests[msg] = task

    def _paid(self, arg) -> None:
        """A probed hit's pool job is done: drop the op if its life ended
        meanwhile, fail it if its deadline passed, answer it if the probe
        still stands; else run the rest of the pipeline as the ``_serve``
        task."""
        msg, probe, span, serve_span = arg
        if serve_span is not None:
            self.env.obs.tracer.finish(serve_span)
        op, kwargs = msg.payload
        deadline_ms = msg.extra.get("deadline_ms")
        requests = self._requests
        # Not in this life's table: dropped, like any op caught by a crash.
        if msg in requests:
            if deadline_ms is None or not self._deadline_expired(msg, op, deadline_ms, span):
                probe = self.listing_cache.serve(op, kwargs, probe)
                if probe is None:
                    self._start_serve((msg, self._serve(msg, op, kwargs, span, True)))
                    return
                self._reply(msg, probe[0])
            del requests[msg]
        if span is not None:
            self._close(span)
        self.env.end_task()

    def _serve(self, msg: Message, op: OpType, kwargs, span, checked: bool):
        """Task body of a paid request the read front does not answer: the
        rest of the pipeline, once and in order.

        (drop | deadline, unless ``_paid`` has ``checked`` them) -> fsync |
        unsupported / safemode failure | retry-cache replay | commit part |
        transaction -> complete.  Every part is called by name; one that is
        switched off answers without effect.  Outcomes leave through
        ``_fail`` / ``_reply`` / ``_complete``.
        """
        try:
            deadline_ms = msg.extra.get("deadline_ms")
            if not checked and (msg not in self._requests or (
                deadline_ms is not None and self._deadline_expired(msg, op, deadline_ms, span)
            )):
                return  # dropped, like any op caught by a crash, or failed
            if op is OpType.FSYNC:
                yield from self._fsync(msg, kwargs, span)
                return
            try:
                fn = self._OPS[op]
            except KeyError:
                self._fail(msg, FsError(f"unsupported operation {op}"), span)
                return
            if op.mutates and self.in_safemode:
                self._fail(
                    msg, SafeModeError(f"{self.addr} is in safemode; {op.value} rejected"), span
                )
                return
            retry_id = msg.extra.get("retry_id")
            if retry_id is not None:
                found, cached = self.retry_cache.lookup(tuple(retry_id))
                if found:
                    # This NN already applied the mutation; replay the
                    # recorded result without touching NDB.
                    self._complete(msg, op, cached, retry_id, replayed=True)
                    return
            if (yield from self.committer.admit(msg, op, fn, kwargs, retry_id, deadline_ms)):
                return  # grouped: the committer acks, flushes and replies
            front = self.listing_cache
            call_ctx, fill = front.reader(op, self.ctx)
            try:
                # A partial, not a closure: captured names would be cells
                # that live from the moment the op queues on the handler pool.
                result = yield from run_transaction(
                    self.api, partial(self._txn_body, retry_id, fn, call_ctx, kwargs),
                    hint_table=INODES_TABLE, hint_key=self._hint_for(kwargs),
                    parent_span=span, deadline=deadline_ms,
                )
            except (FsError, NdbError) as exc:
                self._fail(msg, exc, span)
                return
            replayed = type(result) is Replay
            if replayed:
                result = result.value
            front.fill(op, kwargs, result, fill)
            self._complete(msg, op, result, retry_id, replayed)
        finally:
            if span is not None:
                self._close(span)
            requests = self._requests
            if msg in requests:  # else its life's table is gone
                del requests[msg]

    def _close(self, span) -> None:
        """Close a request's ``nn.handle`` span and sample the NN's latency
        series."""
        obs = self.env.obs
        obs.tracer.finish(span)
        ts = obs.timeseries
        if ts is not None:
            now = self.env.now
            ts.component_sample(
                "nn.handle", str(self.addr),
                now - span.start_ms, span.tags.get("ok", True) is not False, now,
            )

    def _txn_body(self, retry_id, fn, call_ctx, kwargs, txn):
        """The generator for one (re)try of an op on ``txn``.

        The sync path runs it under ``run_transaction``; the group
        committer runs it per member on a batch's shared transaction.
        Without a retry id it is the op's own generator, no frame added.
        """
        if retry_id is None:
            return fn(call_ctx, txn, **kwargs)
        return self._exactly_once(retry_id, fn, call_ctx, kwargs, txn)

    def _exactly_once(self, retry_id, fn, call_ctx, kwargs, txn):
        """The op bracketed by its durable replay record."""
        # Phantom-safe exclusive read: a concurrent retry of the
        # same id serializes here, so exactly one execution wins.
        prior = yield from txn.read(
            RETRY_TABLE,
            tuple(retry_id),
            partition_key=retry_id[0],
            lock=LockMode.EXCLUSIVE,
        )
        if prior is not None:
            return Replay(prior.result)
        result = yield from fn(call_ctx, txn, **kwargs)
        # Same transaction as the mutation: an NN crash after commit
        # cannot lose the replay record.
        yield from txn.write(
            RETRY_TABLE,
            tuple(retry_id),
            RetryRow(client_id=retry_id[0], op_seq=retry_id[1], result=result),
            partition_key=retry_id[0],
        )
        return result

    # ------------------------------------------------------------- outcomes
    def _deadline_expired(self, msg: Message, op: OpType, deadline_ms, span=None) -> bool:
        """Fail ``msg`` if its client has stopped waiting; True when it has.

        Finishing the op would be doomed work that only adds load while
        overloaded.  Checked where an op leaves a queue: the handler pool
        and the group committer's intake.
        """
        remaining = deadline_ms - self.env.now
        if self.env.obs is not None:
            self.env.obs.registry.histogram("nn.deadline_remaining_ms").observe(remaining)
        if remaining > 0:
            return False
        self._fail(
            msg, DeadlineExceededError(f"{op.value} deadline expired at {self.addr}"), span
        )
        return True

    def _fail(self, msg: Message, exc, span=None) -> None:
        """Answer ``msg`` with ``exc``; its ``nn.handle`` span, if given,
        is marked failed, so ``_close`` samples an error."""
        self.ops_failed += 1
        if span is not None:
            span.tags["ok"] = False
        self.network.reply(msg, exc, ok=False)

    def _reply(self, msg: Message, result) -> None:
        self.ops_served += 1
        self.network.reply(msg, result, size=self.config.client_response_bytes)

    def _record_applied(self, op: OpType, retry_id, result, replayed: bool) -> None:
        """Exactly-once bookkeeping, once a retried mutation's result is durable."""
        if self.env.obs is not None:
            name = "nn.retry_cache.hit" if replayed else "nn.retry_cache.miss"
            self.env.obs.registry.counter(name).inc()
        self.retry_cache.put(tuple(retry_id), result)
        if not replayed:
            # One ledger entry per applied (not replayed) mutation; the
            # chaos exactly-once invariant checks ids never repeat.
            self.mutation_ledger.append((tuple(retry_id), op.value))

    def _complete(self, msg, op: OpType, result, retry_id=None, replayed=False):
        """The one completion: exactly-once record, bookkeeping, reply.

        A replayed ADD_BLOCK may be served by an NN that never saw the
        original commit (the client failed over), so the block map is
        updated on replays too — the operations are idempotent.

        A grouped op takes the two halves at its two moments instead —
        ``_reply`` at the early ack, ``_record_applied`` at the commit —
        and skips the bookkeeping: ADD_BLOCK never groups.

        The read front needs nothing here: a mutation's changelog batch,
        published at the TC commit point, travels the per-route FIFO
        TC -> NN route ahead of the commit reply, so it has applied before
        the op resumes, or was dropped and flushed the cache (DESIGN §4).
        """
        if retry_id is not None:
            self._record_applied(op, retry_id, result, replayed)
        if op is OpType.ADD_BLOCK and result is not None:
            self.block_manager.record_new_block(result.block_id, result.locations)
            self.block_manager.block_inode[result.block_id] = result.inode_id
        self._reply(msg, result)

    def _fsync(self, msg: Message, kwargs, span):
        """Durability barrier: wait until the caller's horizons settle.

        ``horizons`` is the list of group-batch ids the client's acked
        mutations rode (none on the synchronous path).  Success means every
        one of them committed; any aborted or lost horizon fails the
        barrier, telling the caller its early-acked data did not survive.
        """
        failed = []
        ledger = self.group_ledger
        for horizon in kwargs.get("horizons") or ():
            state = yield from ledger.wait(horizon)
            if state == "committed":
                ledger.confirmed.add(horizon)
            else:
                failed.append((horizon, state))
        if failed:
            self._fail(msg, FsError(f"durability horizon not committed: {failed}"), span)
        else:
            self._reply(msg, True)

    def _hint_for(self, kwargs) -> Optional[int]:
        """DAT hint: the target's parent directory id, from the dir cache.

        The inodes table is partitioned by parent id, so hinting with it
        starts the transaction on the NDB node holding the target's
        partition.  A cold cache means no hint (selection case 4).
        """
        path = kwargs.get("path") or kwargs.get("src")
        if not path:
            return None
        parent_id = 1
        for name in split_path(path)[:-1]:
            row = self.dir_cache.lookup((parent_id, name))
            if row is None:
                return None
            parent_id = row.id
        return parent_id

    # ----------------------------------------------------- block re-replication
    def _dn_monitor(self):
        """Leader-only: declare silent DNs dead and restore replication."""
        interval = self.config.dn_heartbeat_interval_ms
        deadline = interval * self.config.dn_missed_heartbeats
        while True:
            yield self.env.timeout(interval)
            if not self.is_leader:
                continue
            for dead in self.block_manager.check_expired(deadline):
                # Filed with the loops: it ends with this life.
                self._loops[f"rereplicate:{dead}"] = self.env.spawn(self._rereplicate_from(dead))

    def _rereplicate_from(self, dead: NodeAddress):
        for block_id, survivors in self.block_manager.under_replicated_on(dead):
            if not survivors:
                continue  # data lost; nothing to copy from
            live = self.block_manager.live_dns()
            exclude = set(survivors) | {dead}
            candidates = [dn for dn in sorted(live) if dn not in exclude]
            if not candidates:
                continue
            source = sorted(survivors)[0]
            target = self.block_manager.pick_rereplication_target(candidates, survivors)
            if target is None:
                continue
            try:
                yield self.network.call(
                    self.addr,
                    source,
                    "copy_block",
                    CopyBlockReq(block_id=block_id, target=target),
                    size=128,
                )
            except (HostUnreachableError, FsError):
                continue
            self.block_manager.on_block_received(block_id, target)
            self.block_manager.rereplications += 1
            yield from self._update_block_locations(block_id, dead, target)

    def _update_block_locations(self, block_id: int, dead: NodeAddress, new: NodeAddress):
        """Rewrite the block row so readers see the new replica set."""

        inode_id = self.block_manager.block_inode.get(block_id)
        if inode_id is None:
            # This NN never saw the block's metadata (it did not serve the
            # addBlock); the in-memory map is already correct and the row
            # will be reconciled by the next full block report.
            return

        def body(txn):
            row = yield from txn.read(BLOCKS_TABLE, block_id, partition_key=inode_id)
            if row is not None:
                new_locations = tuple(sorted(set(row.locations) - {dead})) + (new,)
                yield from txn.write(
                    BLOCKS_TABLE,
                    block_id,
                    row.with_(locations=new_locations),
                    partition_key=inode_id,
                )
            return row

        try:
            yield from run_transaction(self.api, body)
        except (TransactionAbortedError, FsError):
            pass
