"""The ready queue merged with the timer heap dispatches in heap order.

The production kernel keeps same-instant, normal-priority entries in a FIFO
beside the timer heap and merges the two at dispatch.  The oracle here is
the kernel it replaced: every entry on *one* heap, popped one at a time by a
loop written out in this file.  A hypothesis-generated program must produce
the same callback order and the same ``(time, priority, seq)`` trace on the
oracle and on production ``run()``, sliced ``run(until=...)``, ``step()``
loops and ``env.trace`` runs.
"""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CorePool, Environment, Interrupt, SimulationError, Store
from repro.sim.kernel import _PROCESSED, _Deferred, _Wakeup

INF = float("inf")


# --------------------------------------------------------------- the oracle
class _OntoHeap:
    """Stands in for the ready deque: every append lands on the one heap."""

    def __init__(self, heap):
        self._heap = heap

    def append(self, entry):
        heappush(self._heap, entry)

    def __bool__(self):
        return False


class SingleHeapEnvironment(Environment):
    """Reference kernel: one heap, one pop per dispatch, always traced."""

    def __init__(self):
        super().__init__()
        self._ready = _OntoHeap(self._queue)
        self.trace = []

    def run(self, until=None):
        assert until is None
        queue = self._queue
        while queue:
            when, priority, seq, item = heappop(queue)
            self._now = when
            self.trace.append((when, priority, seq))
            if isinstance(item, _Deferred):
                item.fn(item.arg)
            elif isinstance(item, _Wakeup):
                if item.process._wake_gen == item.gen:
                    item.process._resume(item.source)
            else:
                callbacks = [] if item._cb1 is None else [item._cb1] + (item._cbs or [])
                item._cb1, item._cbs = _PROCESSED, None
                for callback in callbacks:
                    callback(item)
                if not callbacks and not item._ok and not item._defused:
                    raise item._value
        return self._now


# ------------------------------------------------------------- the programs
class _Boom(Exception):
    pass


class _World:
    """One program's shared objects, built on whichever kernel runs it."""

    def __init__(self, env, program):
        self.env = env
        self.log = []
        self.procs = []
        self.events = [env.event() for _ in range(3)]
        self.stores = [Store(env), Store(env)]
        # One core: jobs queue behind each other; two: they overlap.
        self.pools = [CorePool(env, 1), CorePool(env, 2)]
        for ops in program:
            self.spawn(ops)

    def spawn(self, ops):
        pid = len(self.procs)
        proc = self.env.process(self._body(pid, ops))
        proc.defuse()  # a process nobody joins may fail without ending the run
        self.procs.append(proc)
        return proc

    def _body(self, pid, ops):
        env, log = self.env, self.log
        child = None
        for index, op in enumerate(ops):
            kind = op[0]
            got = None
            try:
                if kind == "timeout":
                    got = yield env.timeout(op[1], value=index)
                elif kind == "rewait":  # second wait finds the event processed
                    timer = env.timeout(op[1], value=index)
                    yield timer
                    got = yield timer
                elif kind == "succeed":
                    if not self.events[op[1]].triggered:
                        self.events[op[1]].succeed((pid, index))
                elif kind == "fail":
                    if not self.events[op[1]].triggered:
                        self.events[op[1]].fail(_Boom(f"{pid}:{index}")).defuse()
                elif kind == "wait":
                    got = yield self.events[op[1]]
                elif kind == "put":
                    self.stores[op[1]].put((pid, index))
                elif kind == "get":
                    got = yield self.stores[op[1]].get()
                elif kind == "job":
                    got = yield self.pools[op[1]].submit(op[2])
                elif kind == "spawn":
                    child = self.spawn(op[1])
                elif kind == "join":
                    if child is not None:
                        got = yield child
                elif kind == "interrupt":
                    target = self.procs[op[1] % len(self.procs)]
                    if target.is_alive and target is not self.procs[pid]:
                        target.interrupt((pid, index))
                elif kind in ("any_of", "all_of"):
                    members = [self.events[op[1]], env.timeout(op[2], value=index)]
                    condition = getattr(env, kind)(members)
                    condition.defuse()  # its waiter may be interrupted away
                    got = sorted((yield condition).values(), key=repr)
                elif kind == "raise":
                    raise _Boom(f"{pid}:{index}")
            except Interrupt as interrupt:
                got = ("interrupted", interrupt.cause)
            except _Boom as boom:
                if kind == "raise":
                    log.append((env.now, pid, index, kind, "raised"))
                    raise
                got = ("failed", str(boom))
            log.append((env.now, pid, index, kind, repr(got)))
        return pid


_DELAYS = st.sampled_from([0, 0, 0.5, 1, 1.5])
_EVENT = st.integers(0, 2)
_LEAF_OPS = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("rewait"), _DELAYS),
    st.tuples(st.just("succeed"), _EVENT),
    st.tuples(st.just("fail"), _EVENT),
    st.tuples(st.just("wait"), _EVENT),
    st.tuples(st.just("put"), st.integers(0, 1)),
    st.tuples(st.just("get"), st.integers(0, 1)),
    st.tuples(st.just("job"), st.integers(0, 1), st.sampled_from([0, 0, 0.5, 1])),
    st.tuples(st.just("join")),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("any_of"), _EVENT, _DELAYS),
    st.tuples(st.just("all_of"), _EVENT, _DELAYS),
    st.tuples(st.just("raise")),
)
_OPS = st.recursive(
    st.lists(_LEAF_OPS, max_size=6),
    lambda children: st.lists(
        st.one_of(_LEAF_OPS, st.tuples(st.just("spawn"), children)), max_size=6
    ),
    max_leaves=12,
)
_PROGRAMS = st.lists(_OPS, min_size=1, max_size=4)
_CUTS = st.lists(st.sampled_from([0, 0, 0.5, 1, 1.5, 2, 3.5]), max_size=5).map(sorted)


# --------------------------------------------------------------- the drivers
def _drive_run(env, cuts):
    env.run()


def _drive_sliced(env, cuts):
    for until in cuts:  # sorted, with repeats: covers ``until == now``
        env.run(until=until)
    env.run()


def _drive_step(env, cuts):
    while env.peek() != INF:
        env.step()


@settings(max_examples=150, deadline=None)
@given(program=_PROGRAMS, cuts=_CUTS)
def test_two_queue_dispatch_matches_the_single_heap_kernel(program, cuts):
    oracle = SingleHeapEnvironment()
    expected = _World(oracle, program)
    oracle.run()
    for drive in (_drive_run, _drive_sliced, _drive_step):
        for traced in (False, True):
            env = Environment()
            if traced:
                env.trace = []
            world = _World(env, program)
            drive(env, cuts)
            assert world.log == expected.log, (drive.__name__, traced)
            assert env._seq == oracle._seq
            assert not env._ready and not env._queue
            if traced:
                assert env.trace == oracle.trace, drive.__name__


# ------------------------------------------------------------ the unit cases
def test_peek_sees_the_ready_queue():
    env = Environment()
    env.timeout(5)
    assert env.peek() == 5
    env.event().succeed()  # due now: queued beside the heap, not on it
    assert env.peek() == 0
    env.step()
    assert env.peek() == 5
    env.step()
    assert env.now == 5 and env.peek() == INF


def test_urgent_and_earlier_zero_delay_entries_beat_ready_entries():
    env = Environment()
    order = []
    env.timeout(0).add_callback(lambda _e: order.append("zero-delay timer"))
    env.event().succeed().add_callback(lambda _e: order.append("ready"))
    env.timeout(0).add_callback(lambda _e: order.append("later zero-delay timer"))
    env.event().succeed(priority=0).add_callback(lambda _e: order.append("urgent"))
    env.run()
    assert order == ["urgent", "zero-delay timer", "ready", "later zero-delay timer"]


def test_run_process_finishes_on_ready_entries_alone():
    """Nothing on the heap is not a deadlock while ready entries remain."""
    env = Environment()
    done = env.event()
    done.succeed("go")
    env.step()  # ``done`` is processed; the heap has been empty throughout

    def proc():
        first = yield done
        second = yield done
        return first + second

    assert env.run_process(proc(), until=0) == "gogo"


def test_run_process_until_is_checked_against_both_queues():
    env = Environment()

    def proc():
        yield env.timeout(5)

    with pytest.raises(SimulationError, match="did not finish by t=3"):
        env.run_process(proc(), until=3)

    def stuck():
        yield env.event()

    with pytest.raises(SimulationError, match="deadlock"):
        Environment().run_process(stuck())


def test_aborted_run_keeps_its_ready_entries():
    """A callback raising mid-run leaves the other same-instant entries
    queued; the resumed run dispatches them, in order, before later timers."""
    env = Environment()
    order = []

    def boom(_event):
        raise RuntimeError("boom")

    def at_two(_arg):
        env.event().succeed().add_callback(lambda _e: order.append("first"))
        env.event().succeed().add_callback(boom)
        env.event().succeed().add_callback(lambda _e: order.append("third"))
        env.timeout(0).add_callback(lambda _e: order.append("zero-delay timer"))

    env.schedule_at(2, at_two)
    env.timeout(4).add_callback(lambda _e: order.append("later timer"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=10)
    assert env.now == 2 and env.peek() == 2
    assert order == ["first"]
    assert env.run(until=10) == 10
    assert order == ["first", "third", "zero-delay timer", "later timer"]
