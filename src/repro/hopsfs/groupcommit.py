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

Crash semantics: the committer files its drain and each unsettled batch
(its members and its flush) with the namenode's loops, so a crash closes
them with the rest of the namenode's life: none of them runs on after the
crash or stays parked on a reply addressed to the dead process; their open
transactions are left to the cluster's inactivity reaper.  ``on_crash``
then marks each unsettled batch ``lost``: the flush RPC may or may not
have reached the transaction coordinator, so the batch either commits fully (NDB applies
the whole transaction) or aborts fully (take-over cleanup).  The chaos
``durability_horizon`` invariant audits exactly that: committed batches'
writes all survive, lost/aborted batches apply all-or-nothing, and every
fsync-confirmed horizon is committed.

Retries: a flush whose commit aborts retryably backs off, opens a fresh
transaction and re-runs the members still in the batch through the same
member body as the first attempt (``GroupCommitter._member``),
concurrently.

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
from ..types import OpType
from .metadata import INODES_TABLE, SMALL_FILE_MAX_BYTES
from .pathlock import split_path
from .robust import Replay

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
    its first member; ``max_batch_ops`` flushes a full batch early.  An
    aborted flush backs off by ``_FLUSH_RETRY`` and re-runs every member
    still in the batch, concurrently, in a fresh transaction.
    """

    linger_ms: float = 1.0
    max_batch_ops: int = 16

    def __post_init__(self) -> None:
        if self.linger_ms < 0:
            raise ConfigError("group-commit linger cannot be negative")
        if self.max_batch_ops < 1:
            raise ConfigError("group-commit batch needs at least one op")


class GroupAck:
    """Early ack: the op's result plus the durability horizon it rides."""

    __slots__ = ("result", "horizon")

    def __init__(self, result, horizon: int):
        self.result = result
        self.horizon = horizon

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroupAck(horizon={self.horizon}, result={self.result!r})"


class GroupBatch:
    """One group-commit batch: its transaction's writes and settle state."""

    __slots__ = (
        "batch_id",
        "owner",
        "state",  # 'open' | 'committed' | 'aborted' | 'lost'
        "writes",  # the current attempt's txn.writes (TcWriteReqs, in order)
        "ops",  # (op.value, retry_id-or-None) per member, for reports
        "acked_ops",
        "opened_ms",
        "settled_ms",
    )

    def __init__(self, batch_id: int, owner):
        self.batch_id = batch_id
        self.owner = owner
        self.state = "open"
        self.writes: list = []  # no transaction yet
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

    def holds(self, op, kwargs) -> bool:
        return False  # nothing pending

    def on_crash(self) -> None:
        """Nothing to lose."""

    def admit(self, msg, op, fn, kwargs, retry_id, deadline_ms):
        """Generator: never takes the op, never waits."""
        return False
        yield  # a generator, as GroupCommitter.admit is

    def drain_gracefully(self) -> tuple:
        return ()


SYNC_COMMIT = _SyncCommit()


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
        "result",
        "ack_ms",  # None until the op's early ack
    )

    def __init__(self, msg, op, fn, kwargs, retry_id, deadline_ms):
        self.msg = msg
        self.op = op
        self.fn = fn
        self.kwargs = kwargs
        self.retry_id = retry_id
        self.deadline_ms = deadline_ms
        self.paths = op_paths(op, kwargs)
        self.result = None
        self.ack_ms: Optional[float] = None


class _BatchCtx:
    """Execution context of one batch: its txn, members, span, fate."""

    __slots__ = ("batch", "txn", "members", "procs", "flush", "span", "retry_exc", "landed")

    def __init__(self, batch: GroupBatch):
        self.batch = batch
        self.txn = None  # the current attempt's transaction
        self.members: list = []  # admitted _GroupOps still in the batch
        self.procs: list = []  # the current attempt's member processes
        self.flush = None  # the flush process, once the batch is handed over
        self.span = None
        self.retry_exc = None  # set by a member that hit an NDB error
        self.landed = False  # set by an acked member's replay

    def close(self) -> None:
        """The namenode crashed: end the batch's processes."""
        for proc in (*self.procs, self.flush):
            if proc is not None:
                proc.close()


class GroupCommitter:
    """Per-namenode batching engine for the async metadata path.

    Two axes of concurrency make the batch path *faster* than the sync
    path rather than a serial bottleneck:

    - member bodies execute concurrently on the shared transaction (their
      paths are disjoint by the admission rule, so their lock footprints
      cannot collide), and each member is acked the moment its own body
      first prepares — the commit round is off the client's critical path;
    - flushes pipeline: while up to ``max_inflight_batches`` earlier
      batches run their commit rounds, the drain loop is already
      gathering and executing the next batch.  Only ops prefix-related
      to a still-unsettled batch are held back.

    A member body runs in one place, :meth:`_member`, which also decides
    what each of its outcomes does to the batch.  A retried flush opens a
    fresh transaction and re-launches every remaining member through it,
    concurrently as on the first attempt.
    """

    max_inflight_batches = 4

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
                self._proc = self.nn.spawn_loop("group-commit", self._drain)
            else:
                self._poke()
            return True
        # Read-your-writes on this NN: a sync-path op (read, block op)
        # prefix-related to a pending grouped mutation must not run at
        # read-committed until that mutation's batch settles.
        while self.holds(op, kwargs):
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
    def _unsettled(self) -> list:
        """The gathering batch, then the flushing ones."""
        if self._gather is None:
            return list(self._inflight)
        return [self._gather, *self._inflight]

    @staticmethod
    def _conflict(paths, ctxs) -> bool:
        """Paths prefix-related to any member of the given batches?"""
        return any(
            paths_conflict(paths, gop.paths) for ctx in ctxs for gop in ctx.members
        )

    def holds(self, op, kwargs) -> bool:
        """Whether a pending (queued, gathering or flushing) grouped op
        conflicts with ``op``: an early-acked batch touching its path may
        not have committed (or invalidated a cache) yet."""
        paths = op_paths(op, kwargs)
        return bool(paths) and (
            self._conflict(paths, self._unsettled())
            or any(paths_conflict(paths, gop.paths) for gop in self.queue)
        )

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
        return len(self._unsettled())

    # ------------------------------------------------------------- crash
    def on_crash(self) -> None:
        """The NN died and its crash has closed the drain and every unsettled
        batch: each batch's commit fate is ambiguous, so it settles as lost,
        and the queue (requests never executed) is dropped."""
        for ctx in self._unsettled():
            self.ledger.lost_acks += sum(gop.ack_ms is not None for gop in ctx.members)
            self._settle(ctx, "lost", "lost")
        self._gather = self._proc = self._wake = None
        # Queued, never-executed requests: the network layer already failed
        # their client RPCs when the address went down.
        self.queue.clear()
        self._notify_settled()

    # -------------------------------------------------------------- drain
    def _drain(self):
        while self.queue:
            yield from self._gather_batch()

    def _gather_batch(self):
        env = self.env
        cfg = self.config
        nn = self.nn
        obs = env.obs
        # Backpressure: bound the flush pipeline.
        while len(self._inflight) >= self.max_inflight_batches:
            yield self._settled()
        batch = self.ledger.open_batch(nn.addr)
        ctx = nn._loops[batch] = _BatchCtx(batch)  # until it settles
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
                    continue
                self.queue.popleft()
                if cand.deadline_ms is not None and nn._deadline_expired(
                    cand.msg, cand.op, cand.deadline_ms
                ):
                    self._notify_settled()
                    continue
                if ctx.txn is None:
                    batch.opened_ms = env.now
                    flush_deadline = env.now + cfg.linger_ms
                    if obs is not None:
                        ctx.span = obs.tracer.start(
                            "nn.group_commit",
                            host=str(nn.addr),
                            az=nn.az,
                            batch=batch.batch_id,
                        )
                    self._open_txn(ctx, cand)
                ctx.members.append(cand)
                self._launch(ctx, cand)
                if not cand.paths:
                    break  # solo batch
                continue
            if ctx.txn is None:
                # Everything queued was shed before joining; nothing opened.
                self._gather = None
                self._settle(ctx, "aborted", "empty")
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
            self._wake = None

        # Hand the batch to the flush pipeline and keep gathering.
        self._gather = None
        self._inflight.append(ctx)
        ctx.flush = env.process(
            self._flush(ctx, env.now - batch.opened_ms),
            name=f"{nn.addr}:group-flush:{batch.batch_id}",
        )

    def _open_txn(self, ctx, head) -> None:
        """Open the transaction of the batch's next attempt, its TC hinted
        by the ``head`` member's path."""
        nn = self.nn
        ctx.txn = nn.api.transaction(
            hint_table=INODES_TABLE, hint_key=nn._hint_for(head.kwargs)
        )
        ctx.txn.obs_span = ctx.span
        ctx.batch.writes = ctx.txn.writes

    def _launch(self, ctx, gop) -> None:
        ctx.procs.append(
            self.env.process(
                self._member(ctx, gop),
                name=f"{self.nn.addr}:group-op:{ctx.batch.batch_id}",
            )
        )

    # ------------------------------------------------------------- member
    def _member(self, ctx, gop):
        """One attempt of one member: the namenode's exactly-once
        ``_txn_body`` on the attempt's shared txn.  Every attempt of every
        member runs here, and each outcome has one rule:

        - a validation failure (groupable ops validate before they write)
          takes the member out of the batch, a lost ack if it was acked;
        - an NDB error (a sibling's abort finishing the shared txn
          included) marks the attempt for a whole-batch retry;
        - a replay means the member's retry row is durable, so it leaves
          the batch done; an acked member's replay also proves that the
          batch's last commit landed although it reported an abort;
        - a success is acked on the attempt where the member first
          prepares.
        """
        nn = self.nn
        try:
            result = yield from nn._txn_body(
                gop.retry_id, gop.fn, nn.ctx, gop.kwargs, ctx.txn
            )
        except FsError as exc:
            ctx.members.remove(gop)
            self._lose(gop, exc)
            self._notify_settled()
            return
        except NdbError as exc:
            # Kept without its traceback: the frames it names hold this
            # body, a cycle.
            ctx.retry_exc = exc.with_traceback(None)
            return
        if type(result) is Replay:
            ctx.members.remove(gop)
            if gop.ack_ms is None:
                nn._complete(gop.msg, gop.op, result.value, gop.retry_id, replayed=True)
            else:
                nn._record_applied(gop.op, gop.retry_id, result.value, True)
                ctx.landed = True
            self._notify_settled()
            return
        batch = ctx.batch
        batch.ops.append((gop.op.value, gop.retry_id))
        gop.result = result
        if gop.ack_ms is None:
            gop.ack_ms = self.env.now
            batch.acked_ops += 1
            nn._reply(gop.msg, GroupAck(result, batch.batch_id))

    def _lose(self, gop, exc) -> None:
        """A member left its batch uncommitted: a lost ack, or its error."""
        if gop.ack_ms is None:
            self.nn._fail(gop.msg, exc)
        else:
            self.ledger.lost_acks += 1

    # -------------------------------------------------------------- flush
    def _flush(self, ctx, linger_actual):
        env = self.env
        attempt = 0
        last_commit = None  # (writes, ops) of the last commit that aborted
        while True:
            # Every member body must have prepared (or failed) before commit.
            alive = [p for p in ctx.procs if p.is_alive]
            if alive:
                yield env.all_of(alive)
            txn = ctx.txn
            if ctx.landed and last_commit is not None:
                # An acked member replayed: the last commit that reported an
                # abort landed, atomically for every member then in the
                # batch (a superset of those still in it).  The batch is
                # committed with that commit's writes; this attempt's
                # re-runs are dropped.  (Without such a commit the retry row
                # came from a client retry after a lost ack reply.)
                yield from txn.abort()
                ctx.batch.writes, ctx.batch.ops = last_commit
                self._finish_commit(ctx, linger_actual)
                return
            if not ctx.members:
                # Every member failed validation or replayed: nothing to commit.
                yield from txn.abort()
                self._settle(ctx, "aborted", "empty")
                return
            exc = ctx.retry_exc
            if exc is None:
                try:
                    yield from txn.commit()
                except TransactionAbortedError as aborted:
                    exc = aborted.with_traceback(None)
                    last_commit = (txn.writes, ctx.batch.ops)
                else:
                    self._finish_commit(ctx, linger_actual)
                    return
            yield from txn.abort()
            attempt += 1
            if not getattr(exc, "retryable", True) or attempt > _FLUSH_RETRY.max_retries:
                self.batches_aborted += 1
                for gop in ctx.members:
                    self._lose(gop, exc)
                if env.obs is not None:
                    env.obs.registry.counter("nn.group_commit.aborts").inc()
                self._settle(ctx, "aborted", "aborted")
                return
            yield env.timeout(_FLUSH_RETRY.backoff_ms(attempt, self._rng))
            # Fresh transaction; every remaining member re-runs through
            # _member, concurrently as on the first attempt (admission kept
            # their paths prefix-disjoint, so their locks cannot collide).
            ctx.batch.ops = []
            ctx.retry_exc = None
            ctx.procs = []
            self._open_txn(ctx, ctx.members[0])
            for gop in ctx.members:
                self._launch(ctx, gop)

    # ---------------------------------------------------------- settling
    def _finish_commit(self, ctx, linger_actual) -> None:
        self.batches_committed += 1
        now = self.env.now
        members = ctx.members
        for gop in members:
            if gop.retry_id is not None:
                self.nn._record_applied(gop.op, gop.retry_id, gop.result, False)
        obs = self.env.obs
        if obs is not None:
            reg = obs.registry
            reg.histogram(
                "nn.group_commit.batch_ops", buckets=(1, 2, 4, 8, 16, 32, 64)
            ).observe(len(members))
            reg.histogram("nn.group_commit.linger_ms").observe(linger_actual)
            lag = reg.histogram("nn.group_commit.durability_lag_ms")
            for gop in members:
                lag.observe(now - gop.ack_ms)
        self._settle(ctx, "committed", "committed")

    def _settle(self, ctx, state: str, outcome: str) -> None:
        """Settle ``ctx``'s batch as ``state``, close its span with
        ``outcome``, drop it from the flush pipeline and wake waiters."""
        self.ledger.settle(ctx.batch, state)
        self.nn._loops.pop(ctx.batch, None)
        if ctx.span is not None:
            self.env.obs.tracer.finish(
                ctx.span, outcome=outcome, ops=len(ctx.members),
                writes=len(ctx.batch.writes),
            )
            ctx.span = None
        if ctx in self._inflight:
            self._inflight.remove(ctx)
        self._notify_settled()
