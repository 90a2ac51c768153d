"""Async group commit: batched metadata flushes with early acks.

The reproduced NDB commit protocol is synchronous — every metadata op
pays a full 2PC round before the client hears back (msg 14), which is the
protocol-level ceiling no kernel optimisation can lift.  This module adds
the AsyncFS-style escape hatch (PAPERS.md): the namenode groups multiple
*compatible* FS ops into one NDB transaction, lingers the flush behind a
size/time policy, and acks each client as soon as its op's redo record is
prepared — before the commit.  The ack carries an explicit *durability
horizon* (the group batch id); a client that needs durability issues an
``fsync`` barrier that waits for its horizon to settle.

Compatibility rule: two ops may share a batch only when no path of one is
a prefix of (or equal to) a path of the other.  Prefix-related ops are
serialized across batches, because an op's transaction reads the
namespace at read-committed and would not observe a prefix-related
sibling's still-prepared rows.  Non-grouped ops (reads, block ops) that
touch a path prefix-related to anything pending first wait for the
conflicting batches to settle — preserving read-your-writes on one NN.

Crash semantics: a namenode crash marks its open batch ``lost`` — the
flush RPC may or may not have reached the transaction coordinator, so the
batch either commits fully (NDB applies the whole transaction) or aborts
fully (take-over cleanup).  The chaos ``durability_horizon`` invariant
audits exactly that: committed batches' writes all survive, lost/aborted
batches apply all-or-nothing, and every fsync-confirmed horizon is
committed.

:func:`commit_part` builds each namenode's commit part once: a
:class:`GroupCommitter`, or with ``HopsFsConfig.async_commit=None`` (the
default) :data:`SYNC_COMMIT`, which answers the same calls and leaves every
op to the namenode's own transaction — no events, no RNG streams, so the
synchronous path stays on the pinned golden schedules.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError, FsError, NdbError, TransactionAbortedError
from ..ndb.client import RetryPolicy
from ..ndb.schema import TOMBSTONE, LockMode
from ..types import OpType
from .metadata import INODES_TABLE, SMALL_FILE_MAX_BYTES
from .pathlock import split_path
from .robust import Replay, do_nothing

__all__ = [
    "GROUP_COMMIT_OPS",
    "AsyncCommitConfig",
    "GroupAck",
    "GroupBatch",
    "GroupCommitLedger",
    "GroupCommitter",
    "SYNC_COMMIT",
    "commit_part",
    "groupable",
    "op_paths",
    "paths_conflict",
]

# Ops the committer may fold into a shared transaction.  All of them
# validate before writing (see ops.py), so a failed member leaves no
# writes behind and the rest of the batch proceeds.  Block ops and reads
# stay on the sync path; large creates do too (their follow-up ADD_BLOCK
# needs the committed under-construction inode).
GROUP_COMMIT_OPS = frozenset(
    {
        OpType.MKDIR,
        OpType.MKDIRS,
        OpType.CREATE_FILE,
        OpType.DELETE_FILE,
        OpType.RENAME,
        OpType.CHMOD,
        OpType.SET_REPLICATION,
        OpType.COMPLETE_FILE,
    }
)


def groupable(op: OpType, kwargs) -> bool:
    """Whether this request may ride a group batch."""
    if op not in GROUP_COMMIT_OPS:
        return False
    if op is OpType.CREATE_FILE:
        data = kwargs.get("data") or b""
        return len(data) <= SMALL_FILE_MAX_BYTES
    return True


def op_paths(op: OpType, kwargs):
    """Normalized path component tuples an op touches (for conflicts)."""
    try:
        if op is OpType.RENAME:
            return (
                tuple(split_path(kwargs["src"])),
                tuple(split_path(kwargs["dst"])),
            )
        path = kwargs.get("path")
        if not path:
            return ()
        return (tuple(split_path(path)),)
    except (FsError, KeyError, TypeError):
        # Malformed paths fail validation in the op body; nothing for the
        # conflict rule to protect.
        return ()


def _prefix_related(a, b) -> bool:
    n = min(len(a), len(b))
    return a[:n] == b[:n]


def paths_conflict(a_paths, b_paths) -> bool:
    """True when any path of one side prefix-relates to one of the other."""
    for pa in a_paths:
        for pb in b_paths:
            if _prefix_related(pa, pb):
                return True
    return False


# A batch's commit retries: 8 retries backing off 2 -> 40 ms.
_FLUSH_RETRY = RetryPolicy()


@dataclass(frozen=True)
class AsyncCommitConfig:
    """Opt-in group-commit policy (mirrors the ``robust`` pattern).

    ``linger_ms`` bounds how long an open batch waits for more ops after
    its first member; ``max_batch_ops`` flushes a full batch early.
    ``max_inflight_batches`` bounds the flush pipeline: the committer
    gathers (and acks) the next batch while up to that many earlier
    batches are still committing.  An aborted flush backs off by
    ``_FLUSH_RETRY`` and re-executes every member body in a fresh
    transaction.
    """

    linger_ms: float = 1.0
    max_batch_ops: int = 16
    max_inflight_batches: int = 4

    def __post_init__(self) -> None:
        if self.linger_ms < 0:
            raise ConfigError("group-commit linger cannot be negative")
        if self.max_batch_ops < 1:
            raise ConfigError("group-commit batch needs at least one op")
        if self.max_inflight_batches < 1:
            raise ConfigError("group-commit pipeline needs at least one slot")


class GroupAck:
    """Early ack: the op's result plus the durability horizon it rides."""

    __slots__ = ("result", "horizon")

    def __init__(self, result, horizon: int):
        self.result = result
        self.horizon = horizon

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroupAck(horizon={self.horizon}, result={self.result!r})"


class GroupBatch:
    """One group-commit batch: its recorded writes and settle state."""

    __slots__ = (
        "batch_id",
        "owner",
        "state",  # 'open' | 'committed' | 'aborted' | 'lost'
        "writes",  # (table, pk, partition_key, value-or-TOMBSTONE), exec order
        "ops",  # (op.value, retry_id-or-None) per member, for reports
        "acked_ops",
        "opened_ms",
        "settled_ms",
    )

    def __init__(self, batch_id: int, owner):
        self.batch_id = batch_id
        self.owner = owner
        self.state = "open"
        self.writes: list = []
        self.ops: list = []
        self.acked_ops = 0
        self.opened_ms: Optional[float] = None
        self.settled_ms: Optional[float] = None


class GroupCommitLedger:
    """Deployment-wide record of every batch and its settle state.

    Batch ids are the durability horizons acks carry; ``confirmed`` holds
    the horizons fsync barriers have vouched for (the durability-horizon
    invariant checks those are committed).  ``lost_acks`` counts acks
    whose batch settled without committing — the early-ack gamble lost.
    """

    def __init__(self, env):
        self.env = env
        self.batches: dict[int, GroupBatch] = {}
        self._ids = itertools.count(1)
        self.confirmed: set[int] = set()
        self.lost_acks = 0
        self._waiters: dict[int, list] = {}

    def open_batch(self, owner) -> GroupBatch:
        batch = GroupBatch(next(self._ids), owner)
        self.batches[batch.batch_id] = batch
        return batch

    @property
    def horizon(self) -> int:
        """Highest committed batch id (0 when nothing committed yet)."""
        return max(
            (bid for bid, b in self.batches.items() if b.state == "committed"),
            default=0,
        )

    def settle(self, batch: GroupBatch, state: str) -> None:
        batch.state = state
        batch.settled_ms = self.env.now
        for ev in self._waiters.pop(batch.batch_id, ()):
            ev.succeed(state)

    def wait(self, batch_id: int):
        """Generator: wait until ``batch_id`` settles; returns its state."""
        batch = self.batches.get(batch_id)
        if batch is None:
            return "committed"  # ids only come from acks; settled long ago
        if batch.state != "open":
            return batch.state
        ev = self.env.event()
        self._waiters.setdefault(batch_id, []).append(ev)
        state = yield ev
        return state


def commit_part(nn, config: Optional[AsyncCommitConfig], ledger: GroupCommitLedger):
    """``nn``'s commit part for ``HopsFsConfig.async_commit``."""
    return SYNC_COMMIT if config is None else GroupCommitter(nn, config, ledger)


class _SyncCommit:
    """The commit part with ``async_commit`` off: every op commits in its
    own transaction before its reply, so nothing is ever batched, pending
    or in doubt.  Answers the namenode's calls to :class:`GroupCommitter`."""

    holds = on_crash = staticmethod(do_nothing)  # nothing pending, nothing to lose

    def admit(self, msg, op, fn, kwargs, retry_id, deadline_ms):
        """Generator: never takes the op, never waits."""
        return False
        yield  # a generator, as GroupCommitter.admit is

    def drain_gracefully(self) -> tuple:
        return ()


SYNC_COMMIT = _SyncCommit()


class _RecordingTxn:
    """NdbTransaction proxy that mirrors writes into the batch record.

    The ledger needs the batch's effective write set to audit crash
    outcomes; ops run unmodified against this proxy.
    """

    __slots__ = ("txn", "batch")

    def __init__(self, txn, batch: GroupBatch):
        self.txn = txn
        self.batch = batch

    def read(self, table, pk, partition_key=None, lock=LockMode.NONE):
        return self.txn.read(table, pk, partition_key, lock)

    def scan(self, table, partition_key):
        return self.txn.scan(table, partition_key)

    def write(self, table, pk, value, partition_key=None, size_hint=None):
        self.batch.writes.append(
            (table, pk, pk if partition_key is None else partition_key, value)
        )
        return self.txn.write(table, pk, value, partition_key, size_hint)

    def delete(self, table, pk, partition_key=None):
        self.batch.writes.append(
            (table, pk, pk if partition_key is None else partition_key, TOMBSTONE)
        )
        return self.txn.delete(table, pk, partition_key)

    def on_abort(self, fn, *args):
        # On the shared transaction: rolling the batch back undoes every member.
        self.txn.on_abort(fn, *args)


class _GroupOp:
    """One queued request riding the group-commit path."""

    __slots__ = (
        "msg",
        "op",
        "fn",
        "kwargs",
        "retry_id",
        "deadline_ms",
        "paths",
        "acked",
        "replayed",
        "result",
        "ack_ms",
    )

    def __init__(self, msg, op, fn, kwargs, retry_id, deadline_ms):
        self.msg = msg
        self.op = op
        self.fn = fn
        self.kwargs = kwargs
        self.retry_id = retry_id
        self.deadline_ms = deadline_ms
        self.paths = op_paths(op, kwargs)
        self.acked = False
        self.replayed = False
        self.result = None
        self.ack_ms: Optional[float] = None


class _BatchCtx:
    """Execution context of one batch: its txn, members, span, fate."""

    __slots__ = ("batch", "txn", "rtxn", "members", "procs", "span", "retry_exc")

    def __init__(self, batch: GroupBatch, txn, rtxn, span):
        self.batch = batch
        self.txn = txn
        self.rtxn = rtxn
        self.members: list = []  # admitted _GroupOps still in the batch
        self.procs: list = []  # member body processes
        self.span = span
        self.retry_exc = None  # set by a member that hit a retryable abort


class GroupCommitter:
    """Per-namenode batching engine for the async metadata path.

    Two axes of concurrency make the batch path *faster* than the sync
    path rather than a serial bottleneck:

    - member bodies execute concurrently on the shared transaction (their
      paths are disjoint by the admission rule, so their lock footprints
      cannot collide), and each member is acked the moment its own body
      has prepared — the commit round is off the client's critical path;
    - flushes pipeline: while up to ``max_inflight_batches`` earlier
      batches run their commit rounds, the drain loop is already
      gathering and executing the next batch.  Only ops prefix-related
      to a still-unsettled batch are held back.
    """

    def __init__(self, nn, config: AsyncCommitConfig, ledger: GroupCommitLedger):
        self.nn = nn
        self.env = nn.env
        self.config = config
        self.ledger = ledger
        self.queue: deque = deque()
        self._wake = None
        self._proc = None
        self._gather: Optional[_BatchCtx] = None
        self._inflight: list = []  # _BatchCtx, flushing but not settled
        self._settle_waiters: list = []
        # Set by a barriered sync-path op: flush the open batch now rather
        # than waiting out the linger.
        self._flush_now = False
        # Crash epoch: bumped by on_crash().  Processes from a stale
        # generation abandon at their next resume point instead of touching
        # shared state — their open NDB transactions are left for the
        # cluster's inactivity reaper, exactly like a client that died
        # mid-txn.
        self._gen = 0
        self._rng = nn.ndb.rng.stream(f"groupcommit:{nn.addr}")
        self.batches_committed = 0
        self.batches_aborted = 0
        self.ops_grouped = 0

    # ------------------------------------------------------------- intake
    def admit(self, msg, op, fn, kwargs, retry_id, deadline_ms):
        """Generator: take a groupable op (True: replies are the
        committer's from here), or hold any other op until nothing pending
        conflicts with it (False: the caller runs its transaction)."""
        if groupable(op, kwargs):
            self.queue.append(_GroupOp(msg, op, fn, kwargs, retry_id, deadline_ms))
            self.ops_grouped += 1
            if self._proc is None or not self._proc.is_alive:
                self._proc = self.env.process(
                    self._drain(), name=f"{self.nn.addr}:group-commit"
                )
            else:
                self._poke()
            return True
        # Read-your-writes on this NN: a sync-path op (read, block op)
        # prefix-related to a pending grouped mutation must not run at
        # read-committed until that mutation's batch settles.
        paths = op_paths(op, kwargs)
        while self.has_conflict(paths):
            # A reader is blocked on the open batch: cut the linger short so
            # the barrier pays only the commit round, not the full linger.
            self._poke(flush_now=True)
            yield self._settled()
        return False

    def _poke(self, flush_now: bool = False) -> None:
        """Wake the gathering drain loop, optionally cutting its linger short."""
        if flush_now:
            self._flush_now = True
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _settled(self):
        """An event that fires at the next settle, shed or crash."""
        ev = self.env.event()
        self._settle_waiters.append(ev)
        return ev

    def _notify_settled(self) -> None:
        waiters, self._settle_waiters = self._settle_waiters, []
        for ev in waiters:
            ev.succeed()

    # ------------------------------------------------- sync-path barrier
    @staticmethod
    def _conflict(paths, ctxs) -> bool:
        """Paths prefix-related to any member of the given batches?"""
        return any(
            paths_conflict(paths, gop.paths) for ctx in ctxs for gop in ctx.members
        )

    def has_conflict(self, paths) -> bool:
        """Any pending (queued, gathering, or flushing) op conflicts?"""
        if not paths:
            return False
        batches = self._inflight
        if self._gather is not None:
            batches = [self._gather, *batches]
        return self._conflict(paths, batches) or any(
            paths_conflict(paths, gop.paths) for gop in self.queue
        )

    def holds(self, op, kwargs) -> bool:
        """Whether a pending grouped op conflicts with ``op``: an early-acked
        batch touching its path may not have committed (or invalidated a
        cache) yet."""
        return self.has_conflict(op_paths(op, kwargs))

    # ----------------------------------------------------- graceful drain
    def drain_gracefully(self):
        """Generator: flush everything pending and wait for it to settle.

        The graceful-decommission counterpart of :meth:`on_crash`: instead
        of declaring open batches "lost", every queued and gathering op
        runs to a real commit or abort, so an acked op ends the drain
        confirmed durable and a failed one was replied-to with its error —
        nothing the NN acked is ever in doubt.  The caller has already
        stopped admission, so no new work arrives while we wait.
        """
        while self.queue or self._gather is not None or self._inflight:
            # A draining NN has no reason to wait for more batch members
            # that can no longer arrive.
            self._poke(flush_now=True)
            yield self._settled()

    @property
    def pending_batches(self) -> int:
        """Batches not yet settled (gathering + flushing)."""
        return len(self._inflight) + (1 if self._gather is not None else 0)

    # ------------------------------------------------------------- crash
    def on_crash(self) -> None:
        """The NN died: every un-settled batch's commit fate is ambiguous."""
        obs = self.env.obs
        doomed = list(self._inflight)
        if self._gather is not None:
            doomed.append(self._gather)
        for ctx in doomed:
            if ctx.batch.state != "open":
                continue
            for gop in ctx.members:
                if gop.acked:
                    self.ledger.lost_acks += 1
            self.ledger.settle(ctx.batch, "lost")
            if ctx.span is not None:
                obs.tracer.finish(ctx.span, outcome="lost")
                ctx.span = None
        self._gather = None
        self._inflight = []
        # Queued, never-executed requests: the network layer already failed
        # their client RPCs when the address went down.
        self.queue.clear()
        # Abandon (don't interrupt) in-flight processes: one may be parked
        # on an RPC whose completion event would then fail with no observer
        # and crash the kernel.  They stay registered, absorb the failure,
        # see the stale generation, and return silently.
        self._gen += 1
        self._proc = None
        self._wake = None
        self._notify_settled()

    # -------------------------------------------------------------- drain
    def _drain(self):
        gen = self._gen
        while self._gen == gen and self.queue:
            yield from self._gather_batch(gen)

    def _gather_batch(self, gen):
        env = self.env
        cfg = self.config
        nn = self.nn
        obs = env.obs
        # Backpressure: bound the flush pipeline.
        while len(self._inflight) >= cfg.max_inflight_batches:
            yield self._settled()
            if self._gen != gen:
                return
        batch = self.ledger.open_batch(nn.addr)
        ctx = _BatchCtx(batch, None, None, None)
        self._gather = ctx
        self._flush_now = False
        flush_deadline = env.now

        # Admit + launch: each admitted member's body runs as its own
        # process against the shared transaction and acks on completion.
        while True:
            if self.queue:
                cand = self.queue[0]
                held = self._conflict(cand.paths, self._inflight)
                if ctx.txn is not None and (
                    len(ctx.members) >= cfg.max_batch_ops
                    or not cand.paths
                    or held
                    or self._conflict(cand.paths, (ctx,))
                ):
                    break  # flush; a later batch picks the head up
                # Opening a batch: the head must serialize after any
                # flushing batch it is prefix-related to, and unparseable
                # paths conflict with everything — that op runs solo once
                # the pipeline is empty (and fails validation in its body).
                if ctx.txn is None and (held or (not cand.paths and self._inflight)):
                    yield self._settled()
                    if self._gen != gen:
                        return
                    continue
                self.queue.popleft()
                if cand.deadline_ms is not None and nn._deadline_expired(
                    cand.msg, cand.op, cand.deadline_ms
                ):
                    self._notify_settled()
                    continue
                if ctx.txn is None:
                    ctx.txn = nn.api.transaction(
                        hint_table=INODES_TABLE, hint_key=nn._hint_for(cand.kwargs)
                    )
                    batch.opened_ms = env.now
                    flush_deadline = env.now + cfg.linger_ms
                    if obs is not None:
                        ctx.span = obs.tracer.start(
                            "nn.group_commit",
                            host=str(nn.addr),
                            az=nn.az,
                            batch=batch.batch_id,
                        )
                        ctx.txn.obs_span = ctx.span
                    ctx.rtxn = _RecordingTxn(ctx.txn, batch)
                ctx.members.append(cand)
                ctx.procs.append(
                    env.process(
                        self._member(ctx, cand, gen),
                        name=f"{nn.addr}:group-op:{batch.batch_id}",
                    )
                )
                if not cand.paths:
                    break  # solo batch
                continue
            if ctx.txn is None:
                # Everything queued was shed before joining; nothing opened.
                self._gather = None
                self.ledger.settle(batch, "aborted")
                self._notify_settled()
                return
            remaining = flush_deadline - env.now
            if remaining <= 0 or len(ctx.members) >= cfg.max_batch_ops or self._flush_now:
                # Linger expired, the batch filled (the size trigger must
                # fire even with an empty queue), or a reader barriers.
                break
            wake = env.event()
            self._wake = wake
            timer = env.timeout(remaining)
            yield env.any_of([wake, timer])
            if self._gen != gen:
                return
            self._wake = None

        # Hand the batch to the flush pipeline and keep gathering.
        self._gather = None
        self._inflight.append(ctx)
        env.spawn(self._flush(ctx, env.now - batch.opened_ms, gen))

    # ------------------------------------------------------------- member
    def _member(self, ctx, gop, gen):
        """One member body: the namenode's exactly-once ``_txn_body`` on the
        shared txn, acked early."""
        nn = self.nn
        try:
            result = yield from nn._txn_body(
                gop.retry_id, gop.fn, nn.ctx, gop.kwargs, ctx.rtxn
            )
        except FsError as exc:
            if self._gen != gen:
                return  # crashed mid-body: on_crash settled the batch
            # Validation failure before any write (groupable ops
            # validate-then-write): fail this member, the batch proceeds.
            ctx.members.remove(gop)
            nn._fail(gop.msg, exc)
            self._notify_settled()
            return
        except NdbError as exc:
            # Includes "txn already finished": a sibling member's abort
            # finishes the shared txn while this body is still reading.
            if self._gen != gen:
                return
            # Whole-batch retry in the flush; unacked.  Kept without its
            # traceback: the frames it names hold this body, a cycle.
            ctx.retry_exc = exc.with_traceback(None)
            return
        if self._gen != gen:
            return
        if type(result) is Replay:
            # Durable retry row found: previously committed, so the reply
            # needs no horizon.
            ctx.members.remove(gop)
            nn._complete(
                gop.msg, gop.op, gop.kwargs, result.value, gop.retry_id, replayed=True
            )
            self._notify_settled()
            return
        ctx.batch.ops.append((gop.op.value, gop.retry_id))
        self._ack(gop, ctx.batch, result)

    # -------------------------------------------------------------- flush
    def _flush(self, ctx, linger_actual, gen):
        env = self.env
        nn = self.nn
        batch = ctx.batch
        # Every member body must have prepared (or failed) before commit.
        alive = [p for p in ctx.procs if p.is_alive]
        if alive:
            yield env.all_of(alive)
        if self._gen != gen:
            return
        txn = ctx.txn
        admitted = ctx.members
        retry_exc = ctx.retry_exc
        attempt = 0
        while True:
            if not admitted:
                # Every member failed validation or replayed: nothing to commit.
                yield from txn.abort()
                if self._gen != gen:
                    return
                self.ledger.settle(batch, "aborted")
                if ctx.span is not None:
                    env.obs.tracer.finish(ctx.span, outcome="empty")
                    ctx.span = None
                self._retire(ctx)
                return
            if retry_exc is None:
                try:
                    yield from txn.commit()
                except TransactionAbortedError as exc:
                    if self._gen != gen:
                        return
                    retry_exc = exc.with_traceback(None)
                else:
                    if self._gen != gen:
                        # Crash raced the commit and lost: the batch already
                        # settled as lost (the commit did land — "lost" means
                        # ambiguous, and the all-or-nothing audit still holds).
                        return
                    self.ledger.settle(batch, "committed")
                    self.batches_committed += 1
                    self._finish_commit(ctx, linger_actual, txn.write_count)
                    return
            yield from txn.abort()
            if self._gen != gen:
                return
            attempt += 1
            if not getattr(retry_exc, "retryable", True) or attempt > _FLUSH_RETRY.max_retries:
                self._abort_batch(ctx, retry_exc)
                return
            yield env.timeout(_FLUSH_RETRY.backoff_ms(attempt, self._rng))
            if self._gen != gen:
                return
            # Fresh transaction; every member body re-runs against it
            # (serially — the retry path is rare and correctness-critical).
            batch.writes.clear()
            batch.ops.clear()
            txn = nn.api.transaction(
                hint_table=INODES_TABLE, hint_key=nn._hint_for(admitted[0].kwargs)
            )
            if ctx.span is not None:
                txn.obs_span = ctx.span
            rtxn = _RecordingTxn(txn, batch)
            retry_exc = None
            kept = []
            pending = list(admitted)
            while pending:
                gop = pending.pop(0)
                try:
                    result = yield from nn._txn_body(
                        gop.retry_id, gop.fn, nn.ctx, gop.kwargs, rtxn
                    )
                except FsError as exc:
                    if self._gen != gen:
                        return
                    # The namespace moved under an already-acked member (a
                    # concurrent writer won); its ack is now a lie the
                    # invariant will count.  Unacked members just fail.
                    self._lose(gop, exc)
                    continue
                except NdbError as exc:
                    if self._gen != gen:
                        return
                    retry_exc = exc.with_traceback(None)
                    kept.append(gop)
                    kept.extend(pending)
                    break
                if self._gen != gen:
                    return
                if type(result) is Replay:
                    # An earlier, ambiguously-lost commit actually landed.
                    gop.result = result.value
                    gop.replayed = True
                    kept.append(gop)
                    continue
                gop.result = result
                batch.ops.append((gop.op.value, gop.retry_id))
                kept.append(gop)
            admitted[:] = kept

    # ---------------------------------------------------------- settling
    def _retire(self, ctx) -> None:
        """Drop a settled batch from the pipeline and wake waiters."""
        if ctx in self._inflight:
            self._inflight.remove(ctx)
        self._notify_settled()

    def _ack(self, gop, batch, result) -> None:
        gop.acked = True
        gop.ack_ms = self.env.now
        gop.result = result
        batch.acked_ops += 1
        self.nn._reply(gop.msg, GroupAck(result, batch.batch_id))

    def _lose(self, gop, exc) -> None:
        """A member left its batch uncommitted: a lost ack, or its error."""
        if gop.acked:
            self.ledger.lost_acks += 1
        else:
            self.nn._fail(gop.msg, exc)

    def _finish_commit(self, ctx, linger_actual, write_count) -> None:
        nn = self.nn
        env = self.env
        now = env.now
        admitted = ctx.members
        for gop in admitted:
            if not gop.acked:
                self._ack(gop, ctx.batch, gop.result)  # late ack: commit won
            if gop.retry_id is not None:
                nn._record_applied(gop.op, gop.retry_id, gop.result, gop.replayed)
        obs = env.obs
        if obs is not None:
            if ctx.span is not None:
                obs.tracer.finish(
                    ctx.span, outcome="committed", ops=len(admitted),
                    writes=write_count,
                )
                ctx.span = None
            reg = obs.registry
            reg.histogram(
                "nn.group_commit.batch_ops", buckets=(1, 2, 4, 8, 16, 32, 64)
            ).observe(len(admitted))
            reg.histogram("nn.group_commit.linger_ms").observe(linger_actual)
            lag = reg.histogram("nn.group_commit.durability_lag_ms")
            for gop in admitted:
                if gop.ack_ms is not None:
                    lag.observe(now - gop.ack_ms)
        self._retire(ctx)

    def _abort_batch(self, ctx, exc) -> None:
        self.ledger.settle(ctx.batch, "aborted")
        self.batches_aborted += 1
        for gop in ctx.members:
            self._lose(gop, exc)
        obs = self.env.obs
        if obs is not None:
            if ctx.span is not None:
                obs.tracer.finish(ctx.span, outcome="aborted", ops=len(ctx.members))
                ctx.span = None
            obs.registry.counter("nn.group_commit.aborts").inc()
        self._retire(ctx)
