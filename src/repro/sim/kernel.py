"""Deterministic discrete-event simulation kernel.

The kernel is a small, dependency-free engine in the style of SimPy:
simulated *processes* are Python generators that ``yield`` events
(timeouts, other processes, store gets, ...) and are resumed when those
events trigger.  Determinism is guaranteed by ordering scheduled events by
``(time, priority, sequence)`` where ``sequence`` is a monotonically
increasing counter, so two runs with the same seed replay identically.

Time is a float in **milliseconds** throughout the repository; the paper's
latency tables are given in milliseconds, which makes traces easy to read.

Hot-path design (see DESIGN.md §4 "Kernel performance"):

* Every kernel object carries ``__slots__`` — a figure run allocates
  hundreds of thousands of events, and dict-backed instances double both
  allocation cost and memory traffic.
* Events hold their first waiter in an inline slot (``_cb1``) instead of a
  per-event callback list: almost every event has exactly one waiter, so
  the common case allocates no list at all.  Extra waiters overflow into
  ``_cbs`` (allocated lazily).
* A process that yields an *already processed* event is re-armed with a
  lightweight :class:`_Wakeup` entry instead of a freshly allocated
  ``Event``.  Nothing but that entry can resume the process, so the run
  loop dispatches it without a staleness check.
* :meth:`Environment.schedule_at` / :meth:`Environment.schedule_after`
  schedule a bare ``fn(arg)`` callback through a :class:`_Deferred` heap
  entry — no Event, no value, no processed state.  Message delivery
  (``Network.send`` pushes its entry inline), CPU job completion and disk
  transfers use it, so an RPC round costs O(1) kernel events instead of
  O(messages); a ``CorePool.call`` job is itself a ``_Deferred`` that runs
  its callback from the ready queue when done (a thread hand-off), or
  inside its completion when nothing could be dispatched before it.  Work
  nobody waits on is not scheduled at all: it is charged
  (``CorePool.charge``, ``Disk.append``).
* Two queues, one order.  Entries scheduled *for the current instant at
  normal priority* (``succeed``/``fail``, process bootstraps and re-wakes,
  CorePool done-events and calls — most of a figure run's entries)
  go to a FIFO ``deque``, everything else to the timer heap, and dispatch
  takes the smaller head of the two.  The deque holds the same ``(time,
  priority, seq, item)`` tuples and is a sorted run by construction (one
  ``now``, one priority, increasing ``seq``), so the two-way merge *is*
  ``(time, priority, seq)`` order — with an O(1) append and popleft where
  the heap paid a sift to the root and a full sift back down.
* A generator nobody waits on runs as a :class:`Task` (``Environment.start``
  / ``spawn``): the process's resume routine without the Event half — no
  name, no value, no waiters — whose end (``Environment.end_task``, also
  called by a callback chain standing for a task) queues its entry only
  when traced.
* A task or process can be closed (``close``): its generator ends at once,
  ``finally`` blocks included, and its next wake-up, success or failure,
  ends the driver as a generator returning there would.
  A closed process lets go of its waiters.
* ``Environment.run`` is the kernel's only dispatch loop, inlined with all
  per-step attribute lookups hoisted into locals.  ``step`` and
  ``run_process`` stop it with a marker entry; a traced run rebinds its two
  pops to recorders, so the untraced loop tests nothing per event.
* No reference cycle outlives a finished process: the cached
  ``_resume_cb`` bound method (Process -> method -> Process) and the
  generator are dropped at every termination point, and a failure's
  traceback loses the kernel frames that hold ``self``.  Finished
  processes are freed by reference counting; the cyclic collector finds
  nothing (``tests/sim/test_no_cyclic_garbage.py``).

All fast paths consume exactly one sequence number per scheduling decision
— the same points at which the pre-refactor kernel consumed them — so the
(time, priority, sequence) trace of a run is bit-for-bit identical to the
straightforward implementation (``tests/sim/test_determinism.py`` pins
this against a committed golden trace hash).
"""

from __future__ import annotations

import hashlib
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Task",
    "AllOf",
    "AnyOf",
    "PRIORITY_NORMAL",
    "SimulationError",
    "dispatch_hash",
    "DispatchHash",
]

PRIORITY_NORMAL = 1

# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()
# Sentinel stored in an event's inline callback slot once its callbacks have
# run: distinguishes "processed" from "pending with no waiters yet" (None).
_PROCESSED = object()
# Dispatch markers: _Deferred and _Wakeup expose them as a class-level
# ``_cb1`` so the run loop classifies any queued entry with the single slot
# load it needs anyway, instead of an extra ``__class__`` check.
_DEFERRED_MARK = object()
_WAKEUP_MARK = object()
_HORIZON_MARK = object()


class _Horizon:
    """Heap entry that ends a run: the ``until`` horizon, or a stop marker.

    ``run(until=...)`` pushes its own sentinel once, so the dispatch loop
    needs no per-iteration peek at the queue head; it sorts after every
    real entry at the same time (priority 2 > PRIORITY_NORMAL, infinite
    sequence).  Any other ``_Horizon`` dispatched is a stop marker
    (:data:`_STOP`): the run returns without moving the clock.  Neither
    consumes a sequence number or reaches the trace, and a run that ends
    early takes every marker off the heap (:func:`_drop_markers`).
    """

    __slots__ = ()
    _cb1 = _HORIZON_MARK


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. yielding a non-event)."""


# The stop marker ``step`` and ``run_process`` push.  Its keys never equal
# another entry's, so tuple comparison never reaches the marker itself.
_STOP = _Horizon()


def _drop_markers(queue: list) -> None:
    """Take every horizon and stop marker off the heap, so that none left by
    a run that ended early can cut a later run short."""
    queue[:] = [entry for entry in queue if entry[3]._cb1 is not _HORIZON_MARK]
    heapify(queue)


class _Deferred:
    """Lightweight heap entry: call ``fn(arg)`` when its time arrives.

    Much cheaper than a full :class:`Event` for fire-and-forget callbacks
    (message delivery, CPU job completion, lock expiry): no value, no
    waiter slots, no processed state, nothing to defuse.  ``fn``/``arg``
    are deliberately mutable so the network layer can coalesce several
    same-instant deliveries into one heap entry (see ``Network.send``).
    """

    __slots__ = ("fn", "arg")
    _cb1 = _DEFERRED_MARK  # run-loop dispatch marker (class attribute)

    def __init__(self, fn: Callable[[Any], None], arg: Any):
        self.fn = fn
        self.arg = arg


class _Wakeup:
    """Ready-queue entry re-delivering an already-processed event to a process
    (or a task: ``process`` is whichever generator driver waits).

    Replaces the fresh ``Event`` the naive implementation allocates when a
    process waits on something that already happened.  ``source is None``
    marks the bootstrap resume of a newly spawned process.
    """

    __slots__ = ("process", "source")
    _cb1 = _WAKEUP_MARK  # run-loop dispatch marker (class attribute)


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* when it has been scheduled to fire (either with
    a success value or a failure exception) and *processed* once its
    callbacks have run.  Waiting on an already-processed event resumes the
    waiter immediately (on the next scheduling step).

    Waiters register with :meth:`add_callback`; callbacks receive the event
    itself.  The first callback lives in an inline slot, extras overflow
    into a lazily allocated list.
    """

    __slots__ = ("env", "_cb1", "_cbs", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self._cb1: Any = None
        self._cbs: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = _PENDING
        self._ok: bool = True
        # Set when a failure was handled by at least one waiter (or marked
        # defused); unhandled failures propagate out of ``Environment.run``.
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self._cb1 is _PROCESSED

    @property
    def ok(self) -> bool:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # -- waiters ----------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run when the event is processed."""
        cb1 = self._cb1
        if cb1 is None:
            self._cb1 = callback
        elif cb1 is _PROCESSED:
            raise SimulationError(f"cannot add a callback to processed {self!r}")
        else:
            cbs = self._cbs
            if cbs is None:
                self._cbs = [callback]
            else:
                cbs.append(callback)

    def _remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Best-effort removal (a triggered condition's observer)."""
        if self._cb1 == callback:
            cbs = self._cbs
            self._cb1 = cbs.pop(0) if cbs else None
        else:
            cbs = self._cbs
            if cbs is not None:
                try:
                    cbs.remove(callback)
                except ValueError:
                    pass

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq += 1
        env._ready.append((env.now, PRIORITY_NORMAL, env._seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        try:
            self._defused
        except AttributeError:
            # Hot-path constructors (timeout/Store.get/CorePool.submit) leave
            # the slot unset: it is only ever read after a fail(), so it is
            # initialised here instead of on every construction.
            self._defused = False
        env = self.env
        env._seq += 1
        env._ready.append((env.now, PRIORITY_NORMAL, env._seq, self))
        return self

    def defuse(self) -> None:
        """Mark a failure as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    Built only by :meth:`Environment.timeout`.
    """

    __slots__ = ("delay",)

    # A timeout is triggered at creation (its value is set immediately).
    triggered = True  # type: ignore[assignment]


class _ConditionBase(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_pending_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events: Tuple[Event, ...] = tuple(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("conditions cannot mix environments")
        self._pending_count = len(self.events)
        observe = self._observe
        for event in self.events:
            if self._value is not _PENDING:
                break
            if event._cb1 is _PROCESSED:
                observe(event)
            else:
                event.add_callback(observe)
        if self._value is _PENDING:
            self._check_vacuous()

    def _observe(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self._pending_count -= 1
            self._on_success(event)
            if self._value is _PENDING:
                return
        self._detach()

    def _detach(self) -> None:
        """Take the triggered condition's observer off the events still pending.

        It would only ignore them, and an event that never fires would hold
        condition -> ``events`` -> event -> observer -> condition as a
        reference cycle.  An event left with no waiter is defused: the
        stale observer used to absorb that event's later failure.
        """
        observe = self._observe
        for event in self.events:
            cb1 = event._cb1
            if cb1 is not _PROCESSED and (cb1 == observe or observe in (event._cbs or ())):
                event._remove_callback(observe)
                if event._cb1 is None:
                    event._defused = True

    def _collect(self) -> dict:
        # Processed events count, and so does an AnyOf sibling that fired in
        # the same step but whose own callbacks have not run yet: a plain
        # Event is always scheduled at the instant it triggers, so
        # "triggered" means "due now".  A pending Timeout is triggered at
        # creation but due in the future — it stays out until it fires.
        processed = _PROCESSED
        return {
            e: e._value
            for e in self.events
            if e._ok
            and (
                e._cb1 is processed
                or (e._value is not _PENDING and not isinstance(e, Timeout))
            )
        }

    def _on_success(self, event: Event) -> None:
        raise NotImplementedError

    def _check_vacuous(self) -> None:
        raise NotImplementedError


class AllOf(_ConditionBase):
    """Triggers once every given event has succeeded (fails fast)."""

    __slots__ = ()

    def _on_success(self, event: Event) -> None:
        if self._pending_count == 0:
            self.succeed(self._collect())

    def _check_vacuous(self) -> None:
        if not self.events:
            self.succeed({})


class AnyOf(_ConditionBase):
    """Triggers as soon as any given event succeeds (fails fast)."""

    __slots__ = ()

    def _on_success(self, event: Event) -> None:
        self.succeed(self._collect())

    def _check_vacuous(self) -> None:
        if not self.events:
            self.succeed({})


def _without_kernel_frames(exc: BaseException) -> BaseException:
    """Strip this module's frames from the head of ``exc``'s traceback.

    An exception escaping a generator is caught in a ``Process`` method
    whose frame (holding ``self``) heads the traceback; storing it as the
    process's value would close Process -> exception -> traceback -> frame
    -> Process.  The dropped entries only ever show the kernel's own
    ``send``/``throw`` call sites.
    """
    tb = exc.__traceback__
    while tb is not None and tb.tb_frame.f_code.co_filename == _THIS_FILE:
        tb = tb.tb_next
    exc.__traceback__ = tb
    return exc


_THIS_FILE = _without_kernel_frames.__code__.co_filename


# The shared half of Process and Task: one resume routine, one retirement,
# one non-event path.  Each class binds these as methods and supplies the
# two end hooks, ``_finish(value)`` and ``_crash(exception)``; every end of
# the generator goes through exactly one of them, and each hook retires
# (the hot ``_finish`` hooks with ``_retire`` inlined).
def _retire(self) -> None:
    """Break driver -> bound method -> driver once the generator is done.

    Nothing reads these slots afterwards: a finished driver has no waiter
    registration or queued ``_Wakeup`` left that could resume it.
    """
    self._resume_cb = self._send = self._generator = None


def _resume(self, trigger: Optional[Event]) -> None:
    """Resume the generator with ``trigger``'s outcome (None = first step).

    This is the hottest function in a figure run — wait registration is
    inlined, and the yielded target is classified by reading its ``_cb1``
    slot directly (only kernel events have one; anything else is the
    non-event error path).
    """
    try:
        if trigger is None:  # first step
            target = self._send(None)
        elif trigger._ok:
            target = self._send(trigger._value)
        else:
            trigger._defused = True
            target = self._generator.throw(trigger._value)
    except StopIteration as stop:
        self._finish(stop.value)
        return
    except BaseException as exc:
        self._crash(_without_kernel_frames(exc))
        return
    try:
        cb1 = target._cb1
    except AttributeError:
        self._fail_non_event(target)
        return
    if cb1 is None:
        target._cb1 = self._resume_cb
    elif cb1 is _PROCESSED:
        # Fast path: re-deliver the processed event through a light
        # _Wakeup instead of allocating a fresh Event (one sequence
        # number either way, so the event trace is unchanged).
        env = self.env
        wakeup = _Wakeup.__new__(_Wakeup)
        wakeup.process = self
        wakeup.source = target
        env._seq += 1
        env._ready.append((env.now, PRIORITY_NORMAL, env._seq, wakeup))
    elif cb1 is _DEFERRED_MARK or cb1 is _WAKEUP_MARK:
        # A schedule_at/schedule_after handle is not a waitable event.
        self._fail_non_event(target)
    else:
        cbs = target._cbs
        if cbs is None:
            target._cbs = [self._resume_cb]
        else:
            cbs.append(self._resume_cb)


class _Closed:
    """What a closed driver resumes in place of its generator: any wake-up,
    success or failure, is a return there (``StopIteration``)."""

    __slots__ = ()

    def send(self, _value: Any) -> None:
        raise StopIteration

    throw = send


_CLOSED = _Closed()


def _close(self) -> None:
    """End the generator now: ``generator.close()`` runs its ``finally``
    blocks, once, here (they must not yield).  The driver stays where it
    waits: its next wake-up, success or failure, ends it as a generator
    returning there would, with the same sequence number, and one that
    never comes leaves nothing to run.  A finished or closed driver is left
    as it is.

    A closed process lets go of whoever waits on it: what waits on closed
    work is closed work too (a crashed server's), and a condition left
    observing a process whose wake-up never comes would hold condition ->
    ``events`` -> process -> observer -> condition as a reference cycle.
    Its end, if it comes, triggers the process with nobody to resume.

    A driver closed from inside its own step (a server that crashes under
    the request it is serving) runs that step to its end: a generator that
    returns ends as usual, one that yields is closed by reference counting
    as the kernel lets go of it, and its wait ends the driver as above."""
    generator = self._generator
    if generator is not None and generator is not _CLOSED:
        self._generator, self._send = _CLOSED, _CLOSED.send
        if isinstance(self, Event):  # a process: its waiters go
            self._cb1 = self._cbs = None
        if not generator.gi_running:  # else its running step registers its wait
            # The waited event holds the resume callback; the driver need not.
            self._resume_cb = None
            generator.close()


def _fail_non_event(self, target: Any) -> None:
    # Throw once so the generator can clean up, then end with the error.
    # (The naive version threw *and* re-raised, leaving the generator
    # mid-unwind with a corrupted frame.)
    generator = self._generator
    what = f"{type(self).__name__.lower()} {getattr(self, 'name', generator.__qualname__)!r}"
    error = SimulationError(f"{what} yielded non-event {target!r}")
    try:
        generator.throw(error)
    except StopIteration as stop:
        self._finish(stop.value)
    except BaseException as exc:
        self._crash(_without_kernel_frames(exc))
    else:
        # The generator swallowed the error and yielded again: close it
        # and end with the original error.
        generator.close()
        self._crash(error)


def _ignore(_arg: Any) -> None:
    pass


# What a traced run dispatches for a task's end: a callback that does
# nothing, exactly what the untraced run would have dispatched (see Task).
_TASK_END = _Deferred(_ignore, None)


class Task:
    """A generator the kernel drives like a :class:`Process` that nobody waits on.

    Same first step, same resume routine (``_Wakeup`` re-waits included),
    and its end consumes one sequence number where a process's end does —
    but a task is not an event: no value, no waiters, no name.
    :meth:`Environment.start` runs its first step in the current dispatch;
    :meth:`Environment.spawn` queues that first step the way a process
    bootstrap is queued.  Both return the task, which its owner may
    :meth:`close`.

    *Sequence parity.*  The end of a process nobody waits on queues an
    entry whose untraced dispatch runs nothing.  A task's end
    (:meth:`Environment.end_task`) consumes that entry's sequence number
    and queues it only under ``env.trace``, so traced and untraced runs keep
    the schedule a process would have had.
    A task that raises queues the failure, so the run fails at the very
    dispatch an unwaited process's failure would have failed it.
    """

    __slots__ = ("env", "_generator", "_send", "_resume_cb")

    _retire = _retire
    _resume = _resume
    _fail_non_event = _fail_non_event
    close = _close

    def __init__(self, env: "Environment", generator: Generator):
        try:
            self._send = generator.send
        except AttributeError:
            raise SimulationError(f"task requires a generator, got {generator!r}") from None
        self.env = env
        self._generator = generator
        # Task -> bound method -> Task: broken by _retire at the task's end.
        self._resume_cb = self._resume

    def _finish(self, _value: Any) -> None:
        self._resume_cb = self._send = self._generator = None  # _retire, inlined
        self.env.end_task()

    def _crash(self, exception: BaseException) -> None:
        self._retire()
        Event(self.env).fail(exception)


class Process(Event):
    """Wraps a generator; the process is itself an event other code can wait
    on, triggered with the generator's return value."""

    __slots__ = ("_generator", "_send", "name", "_resume_cb")

    _retire = _retire
    _resume = _resume
    _fail_non_event = _fail_non_event
    close = _close

    # End hooks: a process's end triggers the process itself.
    def _finish(self, value: Any) -> None:
        self._resume_cb = self._send = self._generator = None  # _retire, inlined
        self.succeed(value)

    def _crash(self, exception: BaseException) -> None:
        self._retire()
        self.fail(exception)

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        # send() is called once per resume; bind it once per process.  The
        # lookup doubles as the "is it a generator" check, before anything
        # is scheduled.
        try:
            self._send = generator.send
        except AttributeError:
            raise SimulationError(
                f"process requires a generator, got {generator!r}"
            ) from None
        # Inline Event.__init__: one Event half per process, nothing more.
        self.env = env
        self._cb1 = None
        self._cbs = None
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # One bound method for the lifetime of the process: registering a
        # wait costs a slot store, not a bound-method allocation.  It makes
        # Process -> bound method -> Process a reference cycle, which every
        # termination point breaks (see _retire) so that a finished process
        # is freed by reference counting, never by the cyclic collector.
        self._resume_cb = self._resume
        # Bootstrap: resume the process at the current time (one sequence
        # number, exactly like the naive bootstrap-Event implementation).
        wakeup = _Wakeup.__new__(_Wakeup)
        wakeup.process = self
        wakeup.source = None
        env._seq += 1
        env._ready.append((env.now, PRIORITY_NORMAL, env._seq, wakeup))

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING


class _RunProcess(Process):
    """The process :meth:`Environment.run_process` drives: either end
    pushes a stop marker that sorts before everything queued, so the run
    stops right after the dispatch in which the process ended."""

    __slots__ = ()

    def _finish(self, value: Any) -> None:
        Process._finish(self, value)
        heappush(self.env._queue, (self.env.now, 0, 0, _STOP))

    def _crash(self, exception: BaseException) -> None:
        Process._crash(self, exception)
        heappush(self.env._queue, (self.env.now, 0, 0, _STOP))


class Environment:
    """The simulation clock and its two event queues.

    ``_queue`` is the timer heap; ``_ready`` is a FIFO of the entries
    scheduled for the current instant that are not timers.  Both hold
    ``(time, priority, seq, item)`` tuples and the ready queue is a sorted
    run by construction, so taking the smaller head of the two dispatches
    in exactly ``(time, priority, seq)`` order (DESIGN.md §4 "Kernel
    performance" has the argument).  Every ready entry's time equals
    ``now``: nothing later can be dispatched while one is queued.

    ``trace``: a sink (a list, or :class:`DispatchHash`) whose ``append``
    receives every dispatched ``(time, priority, seq, item)`` entry —
    events, deferred callbacks and process wakeups alike — before its
    dispatch.  ``run`` reads it once per call and then records through its
    two pops; tracing also queues task ends and disables the network's
    same-instant delivery coalescing, so traces are directly comparable
    across kernel generations.
    """

    __slots__ = ("now", "_queue", "_ready", "_seq", "trace", "obs")

    def __init__(self, initial_time: float = 0.0):
        # The current simulated time: a plain slot the run loop writes and
        # every reader, hot path or not, reads as ``env.now``.
        self.now = initial_time
        self._queue: List[tuple] = []
        self._ready: Deque[tuple] = deque()
        self._seq = 0
        self.trace: Optional[list] = None
        # Observability context (repro.obs.ObsContext) or None.  Components
        # guard every instrumentation site with ``env.obs is not None``;
        # the kernel itself never reads it, so the dispatch loop is
        # untouched and untraced runs pay nothing.
        self.obs = None

    # -- factories --------------------------------------------------------
    # event() and timeout() build their instances with ``__new__`` + direct
    # slot stores: a figure run creates one of these per message / CPU job,
    # and skipping ``type.__call__`` + ``__init__`` measurably shortens the
    # hot path.
    def event(self) -> Event:
        event = Event.__new__(Event)
        event.env = self
        event._cb1 = None
        event._cbs = None
        event._value = _PENDING
        event._ok = True
        event._defused = False
        return event

    def timeout(
        self,
        delay: float,
        value: Any = None,
        # Default-argument binding: these resolve as fast locals instead of
        # module-global lookups in the single hottest allocation site.
        _new=Timeout.__new__,
        _cls=Timeout,
        _push=heappush,
        _normal=PRIORITY_NORMAL,
    ) -> Timeout:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        timeout = _new(_cls)
        timeout.env = self
        timeout._cb1 = None
        timeout._cbs = None
        timeout._value = value
        timeout._ok = True
        timeout.delay = delay
        self._seq += 1
        _push(self._queue, (self.now + delay, _normal, self._seq, timeout))
        return timeout

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def start(self, generator: Generator) -> Task:
        """Run ``generator`` as a :class:`Task`, its first step right now,
        inside the current dispatch; returns the task.  Consumes no sequence
        number to start."""
        task = Task(self, generator)
        task._resume_cb(None)
        return task

    def end_task(self) -> None:
        """End a task, or a callback chain that stands for one: consume the
        sequence number an unwaited process's end takes, and queue its
        do-nothing entry only under ``trace`` (see :class:`Task`).  A chain
        calls it after its last scheduling action, where the task ended."""
        self._seq += 1
        if self.trace is not None:
            self._ready.append((self.now, PRIORITY_NORMAL, self._seq, _TASK_END))

    def call_soon(self, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Queue bare ``fn(arg)`` on the ready FIFO of the current instant —
        the slot a process bootstrap would take.  One sequence number."""
        entry = _Deferred.__new__(_Deferred)
        entry.fn = fn
        entry.arg = arg
        self._seq += 1
        self._ready.append((self.now, PRIORITY_NORMAL, self._seq, entry))

    def spawn(self, generator: Generator) -> Task:
        """Run ``generator`` as a :class:`Task` whose first step takes a
        bootstrap slot, as a process's does; returns the task."""
        task = Task(self, generator)
        wakeup = _Wakeup.__new__(_Wakeup)
        wakeup.process = task
        wakeup.source = None
        self._seq += 1
        self._ready.append((self.now, PRIORITY_NORMAL, self._seq, wakeup))
        return task

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def schedule_at(self, time: float, fn: Callable[[Any], None], arg: Any = None) -> _Deferred:
        """Schedule bare ``fn(arg)`` at absolute ``time`` — no Event allocated.

        Returns the heap entry, whose ``fn``/``arg`` the caller may mutate
        until it fires (the network uses this to batch same-instant
        deliveries).  Costs one sequence number, like any scheduling.
        """
        if time < self.now:
            raise SimulationError(f"schedule_at({time}) is in the past (now={self.now})")
        entry = _Deferred.__new__(_Deferred)
        entry.fn = fn
        entry.arg = arg
        self._seq += 1
        heappush(self._queue, (time, PRIORITY_NORMAL, self._seq, entry))
        return entry

    def schedule_after(self, delay: float, fn: Callable[[Any], None], arg: Any = None) -> _Deferred:
        """Schedule bare ``fn(arg)`` after ``delay``; see :meth:`schedule_at`."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        entry = _Deferred.__new__(_Deferred)
        entry.fn = fn
        entry.arg = arg
        self._seq += 1
        heappush(self._queue, (self.now + delay, PRIORITY_NORMAL, self._seq, entry))
        return entry

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if nothing is scheduled."""
        if self._ready:
            return self._ready[0][0]  # == now: no heap entry can be earlier
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Dispatch the single next entry: ``run`` up to a stop marker keyed
        right behind it (every other key is an integer sequence number)."""
        queue, ready = self._queue, self._ready
        if not (queue or ready):
            raise SimulationError("step() on an empty schedule")
        head = queue[0] if not ready or (queue and queue[0] < ready[0]) else ready[0]
        heappush(queue, (head[0], head[1], head[2] + 0.5, _STOP))
        self.run()

    def run(self, until: Optional[float] = None) -> float:
        """Run until nothing is scheduled, simulated time reaches ``until``
        or a stop marker (``step``, ``run_process``) is dispatched.

        Returns the simulation time at which the run stopped.  This is the
        kernel's only dispatch loop; under ``trace`` its two pops record.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"run(until={until}) is in the past (now={self.now})")
        queue = self._queue
        ready = self._ready
        pop = heappop
        popleft = ready.popleft
        if self.trace is not None:
            pop, popleft = _recording(self.trace.append, popleft)
        deferred_mark = _DEFERRED_MARK
        wakeup_mark = _WAKEUP_MARK
        horizon_mark = _HORIZON_MARK
        processed = _PROCESSED
        sentinel = None
        if until is not None:
            # One sentinel at the horizon beats peeking at the queue head
            # every iteration.  Priority 2 / infinite seq: sorts after every
            # real entry at the same instant, consumes no sequence number.
            sentinel = _Horizon.__new__(_Horizon)
            heappush(queue, (until, 2, float("inf"), sentinel))
        try:
            while True:
                # Two-way merge of the sorted ready run with the heap.  A
                # heap head that beats a ready entry is due at ``now`` too
                # (an earlier zero-delay timer, or a stop marker), so only
                # the heap-alone branch can advance the clock.
                if ready:
                    if queue and queue[0] < ready[0]:
                        item = pop(queue)[3]
                    else:
                        item = popleft()[3]
                elif queue:
                    when, _priority, _seq, item = pop(queue)
                    self.now = when
                else:
                    break  # nothing scheduled: a run with no horizon ends here
                cb1 = item._cb1
                if cb1 is deferred_mark:
                    item.fn(item.arg)
                    continue
                if cb1 is wakeup_mark:
                    item.process._resume(item.source)
                    continue
                if cb1 is horizon_mark:
                    if item is sentinel:
                        sentinel = None
                        self.now = until
                    break  # else a stop marker: the clock stays where it is
                item._cb1 = processed
                cbs = item._cbs
                if cb1 is not None:
                    if cbs is None:
                        cb1(item)
                    else:
                        item._cbs = None
                        cb1(item)
                        for callback in cbs:
                            callback(item)
                elif not item._ok and not item._defused:
                    raise item._value
        except BaseException:
            # A callback raised: the entries queued behind it stay for a
            # resumed run, the markers of this one go.
            _drop_markers(queue)
            raise
        if sentinel is not None:  # a stop marker came before the horizon
            _drop_markers(queue)
        return self.now

    def run_process(self, generator: Generator, until: Optional[float] = None) -> Any:
        """Convenience: spawn ``generator`` and run until it finishes.

        Returns the process's return value.  Raises if the process failed or
        did not complete before ``until``.
        """
        proc = _RunProcess(self, generator)
        self.run(until)
        if proc._value is _PENDING:
            if self._queue or self._ready:
                raise SimulationError(f"process did not finish by t={until}")
            raise SimulationError("process deadlocked: event queue drained")
        if not proc._ok:
            proc._defused = True
            raise proc._value
        return proc._value


def _recording(record: Callable[[tuple], None], popleft: Callable[[], tuple]) -> tuple:
    """The two pops of a traced run: each hands the entry it takes to the
    ``record`` sink before it is dispatched.  Markers, which only the heap
    holds, are not recorded."""

    def pop(queue: list) -> tuple:
        entry = heappop(queue)
        if entry[3]._cb1 is not _HORIZON_MARK:
            record(entry)
        return entry

    def take() -> tuple:
        entry = popleft()
        record(entry)
        return entry

    return pop, take


class DispatchHash:
    """An ``Environment.trace`` that keeps the hash and drops the entries.

    ``env.trace = DispatchHash()`` feeds the ``(time, priority, seq)`` of
    every dispatched entry straight into the SHA-256 of
    :func:`dispatch_hash`, so a long run's memory does not grow with its
    event count.
    """

    __slots__ = ("_sha",)

    def __init__(self):
        self._sha = hashlib.sha256()

    def append(self, entry: tuple) -> None:
        # The line format is what every committed golden and artifact hash
        # was computed with; changing it re-pins all of them.
        self._sha.update(f"{entry[0]!r}:{entry[1]}:{entry[2]}\n".encode())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def dispatch_hash(trace: Iterable[tuple]) -> str:
    """SHA-256 of a recorded ``Environment.trace`` (its entries' ``(time,
    priority, seq)``): the identity of a schedule."""
    h = DispatchHash()
    for entry in trace:
        h.append(entry)
    return h.hexdigest()
