"""Simulation resources: CPU pools, FIFO stores and disks.

These are deliberately lightweight (callback-driven, no generator per job)
because the benchmark harness pushes hundreds of thousands of jobs through
them per run.  Work something waits on is scheduled: ``CorePool.submit``
and ``Disk.write``/``read`` return the event to wait on, and
``CorePool.call`` runs a plain callback when its job is done (a thread
hand-off).  Bookkeeping nobody waits on is only accounted
(``CorePool.charge``, ``Disk.append``), so it costs no kernel entry.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque

from .kernel import PRIORITY_NORMAL, Environment, Event
from .kernel import _PENDING, _PROCESSED, _Deferred  # hot paths inline kernel scheduling

__all__ = ["CorePool", "Store", "Disk"]


def _fire_if_pending(event: Event) -> None:
    if not event.triggered:  # skip cancelled/raced waiters
        event.succeed()


class _Job(Event):
    """A CorePool job: its done-event, carrying its own CPU cost.

    One object per job instead of an event plus a ``(cost, done)`` tuple.
    """

    __slots__ = ("cost",)


class _Call(_Deferred):
    """A CorePool job whose waiter is the callback ``fn(arg)``.

    It is the queued job and, once done, the ready entry itself, where a
    ``_Job`` is a done-event that resumes its waiter: the dispatch loop's
    ``_Deferred`` branch calls ``fn(arg)`` (or the completion does, when
    the entry is due next).  Same sequence number, same queue position; no
    event, no waiter slot.
    """

    __slots__ = ("cost",)


class CorePool:
    """A pool of identical CPU cores with a shared FIFO run queue.

    ``submit(cost)`` returns an event that triggers once a core has executed
    the job for ``cost`` milliseconds; ``call(cost, fn, arg)`` runs
    ``fn(arg)`` at that same dispatch instead.  ``charge(cost)`` only
    accounts such a job, for pools whose work nothing waits on.  Busy time
    is accumulated in ``busy_time``; ``Harness.utilization_report``
    (``repro.experiments.setups``) turns it into utilization over a window.
    """

    def __init__(self, env: Environment, cores: int, name: str = "cpu"):
        if cores < 1:
            raise ValueError(f"CorePool needs >=1 core, got {cores}")
        self.env = env
        self.cores = cores
        self.name = name
        self.busy_time = 0.0
        self.jobs_done = 0
        self._free = cores
        self._pending: Deque[_Job | _Call] = deque()
        # One bound method for the pool's lifetime; completions are the
        # busiest deferred callback in a figure run.
        self._complete_cb = self._complete

    # submit()/_complete() hand-inline Event construction, the completion
    # deferred, done.succeed() and the dispatch of the finished job's entry:
    # every RPC handler charges a CPU pool per message.  Keep in sync with
    # kernel internals: timed entries go on the heap (env._queue), the
    # same-instant done-event on the ready queue (env._ready), as
    # Event.succeed() would put it, unless the completion runs it in place
    # (see _complete).
    def submit(
        self,
        cost: float,
        # Fast-local bindings of module globals (see kernel.timeout).
        _new=_Job.__new__,
        _event=_Job,
        _dnew=_Deferred.__new__,
        _deferred=_Deferred,
        _pending=_PENDING,
        _push=heappush,
        _normal=PRIORITY_NORMAL,
    ) -> Event:
        """Enqueue a job costing ``cost`` ms of CPU; returns its done-event."""
        if cost < 0:
            raise ValueError(f"negative CPU cost {cost}")
        env = self.env
        done = _new(_event)
        done.env = env
        done._cb1 = None
        done._cbs = None
        done._value = _pending
        done._ok = True
        done.cost = cost
        if self._free > 0:
            # Most submits find a free core immediately.
            self._free -= 1
            entry = _dnew(_deferred)
            entry.fn = self._complete_cb
            entry.arg = done
            env._seq += 1
            _push(env._queue, (env.now + cost, _normal, env._seq, entry))
        else:
            self._pending.append(done)
        return done

    def call(
        self,
        cost: float,
        fn: Callable[[Any], None],
        arg: Any,
        _new=_Call.__new__,
        _cls=_Call,
        _dnew=_Deferred.__new__,
        _deferred=_Deferred,
        _push=heappush,
        _normal=PRIORITY_NORMAL,
    ) -> None:
        """Enqueue a job costing ``cost`` ms of CPU; ``fn(arg)`` runs when
        it is done, exactly where a ``submit`` waiter would resume."""
        if cost < 0:
            raise ValueError(f"negative CPU cost {cost}")
        job = _new(_cls)
        job.fn = fn
        job.arg = arg
        job.cost = cost
        if self._free > 0:
            self._free -= 1
            entry = _dnew(_deferred)
            entry.fn = self._complete_cb
            entry.arg = job
            env = self.env
            env._seq += 1
            _push(env._queue, (env.now + cost, _normal, env._seq, entry))
        else:
            self._pending.append(job)

    def charge(self, cost: float) -> None:
        """Account a job costing ``cost`` ms of CPU that nothing waits on.

        Busy time and ``jobs_done`` accrue now, and nothing is scheduled or
        queued: no sequence number, no completion, no done-event.  Only for
        a pool nobody waits on (the NDB REP and IO threads): such a pool's
        jobs never hold a core that a waited ``submit`` could queue behind.
        """
        if cost < 0:
            raise ValueError(f"negative CPU cost {cost}")
        self.busy_time += cost
        self.jobs_done += 1

    @property
    def queue_length(self) -> int:
        return len(self._pending)

    @property
    def in_service(self) -> int:
        return self.cores - self._free

    def _complete(
        self,
        done: _Job | _Call,
        _job=_Job,
        _dnew=_Deferred.__new__,
        _deferred=_Deferred,
        _push=heappush,
        _normal=PRIORITY_NORMAL,
        _processed=_PROCESSED,
    ) -> None:
        """A job is done: account it, start the next queued job, and hand
        the finished one's entry on.

        The entry takes its sequence number here either way.  When it would
        be the next one dispatched — the ready queue empty (its head would
        sort first), nothing on the heap due at ``now`` (an earlier timer or
        a stop marker or horizon there), ``env.trace`` off (a recorder must
        see it) — the completion runs it in place, as the dispatch loop
        would: the ``_Call``'s ``fn(arg)``, or the ``_Job``'s waiters.  The
        callback runs in the dispatch where it would have, after the same
        sequence numbers, so the schedule is the queued one without the
        queue round trip.
        """
        self.busy_time += done.cost
        self.jobs_done += 1
        env = self.env
        env._seq += 1
        seq = env._seq  # the finished job's ready entry, queued or run here
        queue = env._queue
        if self._pending:
            # The freed core immediately picks up the next queued job
            # (the +1/-1 on _free cancels out).
            next_done = self._pending.popleft()
            entry = _dnew(_deferred)
            entry.fn = self._complete_cb
            entry.arg = next_done
            env._seq += 1
            _push(queue, (env.now + next_done.cost, _normal, env._seq, entry))
        else:
            self._free += 1
        is_job = done.__class__ is _job
        if is_job:
            done._value = None  # inline done.succeed(): done is submit-private
        if env._ready or env.trace is not None or (queue and queue[0][0] <= env.now):
            # Something may dispatch before the entry, or a recorder must
            # see it: queue it (a _Call runs fn(arg) when dispatched).
            env._ready.append((env.now, _normal, seq, done))
        elif not is_job:
            # The entry would be dispatched next: run it here, as the
            # dispatch loop would have.
            done.fn(done.arg)
        else:
            cb1 = done._cb1
            done._cb1 = _processed
            if cb1 is not None:
                cbs = done._cbs
                if cbs is None:
                    cb1(done)
                else:
                    done._cbs = None
                    cb1(done)
                    for callback in cbs:
                        callback(done)


class Store:
    """Unbounded FIFO item store: a hand-off queue between processes."""

    def __init__(self, env: Environment, name: str = "store"):
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    # put()/get() hand-inline Event construction and succeed(): one item
    # handed over costs two of these calls.  Keep in sync
    # with kernel.Event / Environment.event; a hand-off is due now, so it
    # goes on the ready queue (env._ready) like any succeed().
    def put(
        self,
        item: Any,
        _pending=_PENDING,
        _normal=PRIORITY_NORMAL,
    ) -> None:
        """Deposit ``item``; wakes the oldest waiting getter, if any."""
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter._value is _pending:  # skip cancelled/raced getters
                getter._value = item
                env = getter.env
                env._seq += 1
                env._ready.append((env.now, _normal, env._seq, getter))
                return
        self._items.append(item)

    def get(
        self,
        _new=Event.__new__,
        _event=Event,
        _pending=_PENDING,
        _normal=PRIORITY_NORMAL,
    ) -> Event:
        """Return an event that triggers with the next item."""
        env = self.env
        event = _new(_event)
        event.env = env
        event._cb1 = None
        event._cbs = None
        event._ok = True
        items = self._items
        if items:
            event._value = items.popleft()
            env._seq += 1
            env._ready.append((env.now, _normal, env._seq, event))
        else:
            event._value = _pending
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)


class Disk:
    """A disk with a fixed sequential bandwidth and a FIFO queue.

    Used for the NDB redo log / checkpoints (``append``: nothing waits on
    them), the Ceph MDS journal, and OSD object writes.  Bandwidth is in
    bytes per millisecond.
    """

    def __init__(self, env: Environment, bandwidth_bytes_per_ms: float, name: str = "disk"):
        if bandwidth_bytes_per_ms <= 0:
            raise ValueError("disk bandwidth must be positive")
        self.env = env
        self.name = name
        self.bandwidth = bandwidth_bytes_per_ms
        self.bytes_written = 0
        self.bytes_read = 0
        self.busy_time = 0.0
        # Time at which the last queued transfer completes.
        self._drain_at = 0.0

    def _transfer(self, nbytes: int) -> Event:
        duration = nbytes / self.bandwidth
        start = max(self.env.now, self._drain_at)
        self._drain_at = start + duration
        self.busy_time += duration
        done = self.env.event()
        delay = self._drain_at - self.env.now
        self.env.schedule_after(delay, _fire_if_pending, done)
        return done

    def write(self, nbytes: int) -> Event:
        """Queue a write; returns an event fired when it hits the platter."""
        self.bytes_written += nbytes
        return self._transfer(nbytes)

    def read(self, nbytes: int) -> Event:
        self.bytes_read += nbytes
        return self._transfer(nbytes)

    def append(self, nbytes: int) -> None:
        """Queue a write nothing waits on (redo log, checkpoint bytes).

        It takes the bytes, busy time and queue position a ``write`` would,
        so a waited transfer behind it completes when it would behind a
        ``write``; no completion is scheduled.
        """
        self.bytes_written += nbytes
        # _transfer's queueing arithmetic, inlined rather than shared so
        # the waited transfers (Ceph journal, OSD) pay no extra call.
        duration = nbytes / self.bandwidth
        start = max(self.env.now, self._drain_at)
        self._drain_at = start + duration
        self.busy_time += duration
