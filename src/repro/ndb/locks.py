"""Row-level locking with strict two-phase locking semantics.

NDB uses strict 2PL (Section II-B2): locks are acquired as operations
execute and released only at commit/abort.  Deadlocks are broken by
``TransactionDeadlockDetectionTimeout`` — a waiter that cannot get the lock
in time aborts its transaction, and the application (HopsFS) retries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Hashable

from ..errors import LockTimeoutError
from ..sim import Environment, Event
from .schema import LockMode

__all__ = ["LockTable"]


@dataclass(slots=True)
class _LockRequest:
    """A request that had to queue; immediate grants never build one."""

    txid: int
    mode: LockMode
    event: Event
    granted: bool = False
    abandoned: bool = False
    # Tracing only (set when queued under an active ObsContext): when the
    # request started waiting, and the span the wait reports under.
    queued_at: float = -1.0
    obs_parent: object = None


@dataclass(slots=True)
class _RowLock:
    holders: dict[int, LockMode] = field(default_factory=dict)
    queue: Deque[_LockRequest] = field(default_factory=deque)

    @property
    def idle(self) -> bool:
        return not self.holders and not self.queue


class LockTable:
    """Per-datanode lock manager for the rows it stores."""

    def __init__(self, env: Environment, deadlock_timeout_ms: float = 1200.0):
        self.env = env
        self.deadlock_timeout_ms = deadlock_timeout_ms
        self._rows: dict[Hashable, _RowLock] = {}
        # txid -> row keys it holds or waits on (for release_all).  Stored
        # as an insertion-ordered dict-of-None rather than a set so that
        # release order is deterministic across processes (set iteration
        # order depends on PYTHONHASHSEED; lock hand-off order must not).
        self._by_txn: dict[int, dict[Hashable, None]] = {}
        self.timeouts_fired = 0

    # -- public API -----------------------------------------------------------
    def acquire(self, txid: int, key: Hashable, mode: LockMode, parent=None) -> Event:
        """Request ``mode`` on row ``key``; returns an event granted later.

        Fails with :class:`LockTimeoutError` if the deadlock-detection
        timeout fires first.  ``parent`` (tracing only) nests the recorded
        wait span under the caller's span; contended waits are recorded
        retrospectively at grant/timeout time, immediate grants record
        nothing.
        """
        if mode is LockMode.NONE:
            raise ValueError("LockMode.NONE is not a lock")
        env = self.env
        event = env.event()
        row = self._rows.get(key)
        if row is None:
            # A row nobody holds or waits on: nothing to conflict with.
            self._rows[key] = _RowLock({txid: mode}, deque())
            self._index(txid, key)
            event.succeed()
            return event
        holders = row.holders
        held = holders.get(txid)
        if held is not None and (held is LockMode.EXCLUSIVE or mode is LockMode.SHARED):
            event.succeed()  # what it holds already covers the request
            return event
        # FIFO fairness: cannot jump a non-empty queue unless upgrading.
        if (held is not None or not row.queue) and self._compatible(holders, txid, mode):
            holders[txid] = mode
            self._index(txid, key)
            event.succeed()
            return event
        request = _LockRequest(txid, mode, event)
        if env.obs is not None:
            request.queued_at = env.now
            request.obs_parent = parent
        if held is not None:
            # Lock upgrade (S -> X): goes to the front of the queue so the
            # holder is not starved behind newcomers.
            row.queue.appendleft(request)
        else:
            row.queue.append(request)
        self._index(txid, key)
        # Bound per wait, not cached on the table: a cached bound method is
        # a cycle, and a restart replaces the table (DESIGN §4 rule 1).
        env.schedule_after(self.deadlock_timeout_ms, self._expire, (request, key))
        return event

    def release(self, txid: int, key: Hashable) -> None:
        """Release one row lock held by ``txid`` (commit applies per-row)."""
        row = self._rows.get(key)
        if row is None:
            return
        holders = row.holders
        if holders.pop(txid, None) is not None:
            keys = self._by_txn.get(txid)
            if keys is not None:
                keys.pop(key, None)
                if not keys:
                    del self._by_txn[txid]
        if row.queue:
            self._pump(row, key)
        elif not holders:
            del self._rows[key]  # idle: nobody to hand the row to

    def release_all(self, txid: int) -> None:
        """Release every lock held (or awaited) by ``txid``."""
        keys = self._by_txn.pop(txid, ())
        for key in keys:
            row = self._rows.get(key)
            if row is None:
                continue
            row.holders.pop(txid, None)
            for request in row.queue:
                if request.txid == txid and not request.abandoned:
                    request.abandoned = True
                    if not request.event.triggered:
                        request.event.fail(
                            LockTimeoutError(
                                f"txn {txid} aborted while waiting for {key!r}"
                            )
                        )
            self._pump(row, key)

    def holds(self, txid: int, key: Hashable, mode: LockMode) -> bool:
        row = self._rows.get(key)
        if row is None:
            return False
        held = row.holders.get(txid)
        return held is not None and (held is LockMode.EXCLUSIVE or mode is LockMode.SHARED)

    def held_keys(self, txid: int) -> set[Hashable]:
        return set(self._by_txn.get(txid, ()))

    def holds_any(self, txid: int) -> bool:
        """Does ``txid`` hold or await any row here?  ``held_keys`` without the set."""
        return bool(self._by_txn.get(txid))

    @property
    def active_rows(self) -> int:
        return sum(1 for row in self._rows.values() if not row.idle)

    def active_row_txids(self) -> dict[Hashable, set[int]]:
        """Per non-idle row: the txids holding or waiting on it."""
        return {
            key: set(row.holders)
            | {req.txid for req in row.queue if not req.abandoned}
            for key, row in self._rows.items()
            if not row.idle
        }

    # -- internals --------------------------------------------------------------
    @staticmethod
    def _compatible(holders: dict[int, LockMode], txid: int, mode: LockMode) -> bool:
        """May ``txid`` take ``mode`` beside the *other* holders of the row?"""
        for other, other_mode in holders.items():
            if other != txid and (
                mode is LockMode.EXCLUSIVE or other_mode is not LockMode.SHARED
            ):
                return False
        return True

    def _index(self, txid: int, key: Hashable) -> None:
        keys = self._by_txn.get(txid)
        if keys is None:
            self._by_txn[txid] = {key: None}
        else:
            keys[key] = None

    def _grant(self, row: _RowLock, request: _LockRequest, key: Hashable) -> None:
        """Hand a queued request its lock (``_pump`` only; see ``acquire``)."""
        request.granted = True
        row.holders[request.txid] = request.mode
        self._index(request.txid, key)
        request.event.succeed()
        if request.queued_at >= 0.0:
            self._record_wait(request, key, timed_out=False)

    def _record_wait(self, request: _LockRequest, key: Hashable, timed_out: bool) -> None:
        """Record a contended wait's span + histogram sample (tracing only)."""
        obs = self.env.obs
        if obs is None:
            return
        now = self.env.now
        obs.tracer.record(
            "ndb.lock.wait", request.queued_at, now,
            parent=request.obs_parent,
            key=str(key), mode=request.mode.value, timed_out=timed_out,
        )
        obs.registry.histogram("ndb.lock.wait_ms").observe(now - request.queued_at)
        if timed_out:
            obs.registry.counter("ndb.lock.timeouts_fired").inc()

    def _pump(self, row: _RowLock, key: Hashable) -> None:
        while row.queue:
            head = row.queue[0]
            if head.abandoned or head.event.triggered:
                row.queue.popleft()
                continue
            if not self._compatible(row.holders, head.txid, head.mode):
                break
            row.queue.popleft()
            self._grant(row, head, key)
        if row.idle:
            self._rows.pop(key, None)

    def _expire(self, timer: tuple) -> None:
        request, key = timer
        if request.granted or request.abandoned or request.event.triggered:
            return
        request.abandoned = True
        self.timeouts_fired += 1
        if request.queued_at >= 0.0:
            self._record_wait(request, key, timed_out=True)
        row = self._rows.get(key)
        if row is not None:
            try:
                row.queue.remove(request)
            except ValueError:
                pass
            self._pump(row, key)
        request.event.fail(
            LockTimeoutError(
                f"txn {request.txid} timed out waiting for {request.mode.value} on {key!r}"
            )
        )
