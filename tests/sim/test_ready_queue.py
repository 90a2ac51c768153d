"""The ready queue merged with the timer heap dispatches in heap order.

The production kernel keeps same-instant, normal-priority entries in a FIFO
beside the timer heap and merges the two at dispatch.  The oracle here is
the kernel it replaced: every entry on *one* heap, popped one at a time by a
loop written out in this file.  A hypothesis-generated program must produce
the same callback order and the same ``(time, priority, seq)`` trace on the
oracle and on production ``run()``, sliced ``run(until=...)``, ``step()``
loops, a ``run_process`` followed by ``run()``, and ``env.trace`` runs.
The oracle's pool completions always queue their job (it is traced), so a
``submit`` or ``call`` job that production runs inside its completion is
held to the queued order too.

Tasks are held to the process they replace: in the oracle a task is a
``Process`` nobody waits on, so a task's end must consume the sequence
number of that process's end entry (and queue the entry only when traced),
and a raising task must fail the run at the dispatch the unwaited process's
failure would have.
"""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CorePool, Environment, Process, SimulationError, Store
from repro.sim.kernel import _PROCESSED, _Deferred, _Wakeup

INF = float("inf")


def _keys(trace):
    """A recorded trace's ``(time, priority, seq)`` keys, without the items."""
    return trace and [entry[:3] for entry in trace]


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
    """Reference kernel: one heap, one pop per dispatch, always traced.

    ``run_process``'s process is checked after every dispatch: any run
    stops right after the dispatch in which it ended."""

    def __init__(self):
        super().__init__()
        self._ready = _OntoHeap(self._queue)
        self.trace = []
        self._main = None

    def run(self, until=None):
        assert until is None
        queue = self._queue
        while queue:
            when, priority, seq, item = heappop(queue)
            self.now = when
            self.trace.append((when, priority, seq))
            if isinstance(item, _Deferred):
                item.fn(item.arg)
            elif isinstance(item, _Wakeup):
                item.process._resume(item.source)
            else:
                callbacks = [] if item._cb1 is None else [item._cb1] + (item._cbs or [])
                item._cb1, item._cbs = _PROCESSED, None
                for callback in callbacks:
                    callback(item)
                if not callbacks and not item._ok and not item._defused:
                    raise item._value
            if self._main is not None and not self._main.is_alive:
                self._main = None
                break
        return self.now

    def run_process(self, generator, until=None):
        assert until is None
        self._main = main = self.process(generator)
        self.run()
        return main.value

    # A task is a Process nobody waits on.  ``spawn`` is ``process``;
    # ``start`` is a process whose bootstrap entry is never queued (nor its
    # sequence number consumed) and whose first step runs in place.
    def start(self, generator):
        ready, self._ready = self._ready, []
        process = Process(self, generator)
        self._ready, self._seq = ready, self._seq - 1
        process._resume(None)

    def spawn(self, generator):
        self.process(generator)

    def call_soon(self, fn, arg=None):
        self.schedule_after(0, fn, arg)


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

    def task(self, ops):
        """A body nobody can join; its ``raise`` fails the run."""
        pid = len(self.procs)
        self.procs.append(None)
        return self._body(pid, ops)

    def _soon(self, tag):
        self.log.append((self.env.now, "soon", tag))

    def _called(self, tag):
        """A ``CorePool.call`` job's callback: logs, then schedules."""
        self.log.append((self.env.now, "called", tag))
        self.env.event().succeed()

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
                elif kind == "call":
                    self.pools[op[1]].call(op[2], self._called, (pid, index))
                elif kind == "spawn":
                    child = self.spawn(op[1])
                elif kind == "start":
                    env.start(self.task(op[1]))
                elif kind == "spawn_task":
                    env.spawn(self.task(op[1]))
                elif kind == "call_soon":
                    env.call_soon(self._soon, (pid, index))
                elif kind == "join":
                    if child is not None:
                        got = yield child
                elif kind in ("any_of", "all_of"):
                    members = [self.events[op[1]], env.timeout(op[2], value=index)]
                    got = sorted((yield getattr(env, kind)(members)).values(), key=repr)
                elif kind == "raise":
                    raise _Boom(f"{pid}:{index}")
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
    st.tuples(st.just("call"), st.integers(0, 1), st.sampled_from([0, 0, 0.5, 1])),
    st.tuples(st.just("join")),
    st.tuples(st.just("any_of"), _EVENT, _DELAYS),
    st.tuples(st.just("all_of"), _EVENT, _DELAYS),
    st.tuples(st.just("raise")),
    st.tuples(st.just("call_soon")),
)
_OPS = st.recursive(
    st.lists(_LEAF_OPS, max_size=6),
    lambda children: st.lists(
        st.one_of(
            _LEAF_OPS,
            st.tuples(st.sampled_from(["spawn", "start", "spawn_task"]), children),
        ),
        max_size=6,
    ),
    max_leaves=12,
)
_PROGRAMS = st.lists(_OPS, min_size=1, max_size=4)


def _nested_start(inner, rest, parent_rest):
    """A body whose first op starts a task that, before its own first
    yield, starts another: a local chain hop started from its handler."""
    return [("start", [("start", inner), *rest]), *parent_rest]


_NESTED_PROGRAMS = st.builds(
    lambda nested, others: [nested, *others],
    st.builds(_nested_start, _OPS, _OPS, _OPS),
    st.lists(_OPS, max_size=3),
)
_CUTS = st.lists(st.sampled_from([0, 0, 0.5, 1, 1.5, 2, 3.5]), max_size=5).map(sorted)


# --------------------------------------------------------------- the drivers
def _resuming(env, dispatch, failures):
    """Call ``dispatch()`` until it returns; a task's raise ends the call
    early, is logged with the instant it failed at, and the run resumes."""
    while True:
        try:
            return dispatch()
        except _Boom as boom:
            failures.append((env.now, str(boom)))


def _drive_run(env, cuts, failures, world):
    _resuming(env, env.run, failures)


def _drive_sliced(env, cuts, failures, world):
    for until in cuts:  # sorted, with repeats: covers ``until == now``
        _resuming(env, lambda: env.run(until=until), failures)
    _resuming(env, env.run, failures)


def _drive_step(env, cuts, failures, world):
    while env.peek() != INF:
        try:
            env.step()
        except _Boom as boom:  # the step that raised did dispatch its entry
            failures.append((env.now, str(boom)))


def _drive_process(env, cuts, failures, world):
    """``run_process`` of a process that ends at the last cut, then a new
    same-instant entry, then ``run()``: the entry's sequence number says
    where the run stopped."""

    def main():
        yield env.timeout(cuts[-1] if cuts else 0)
        return env.now

    try:
        assert env.run_process(main()) == env.now
    except _Boom as boom:  # a task raised first: any run still stops where main ends
        failures.append((env.now, str(boom)))
        _resuming(env, env.run, failures)
    env.call_soon(world._soon, "after main")
    _resuming(env, env.run, failures)


def _matches_the_oracle(program, cuts):
    for drive in (_drive_run, _drive_sliced, _drive_step, _drive_process):
        # The oracle runs whole (no horizon, no step); run_process it has.
        oracle = SingleHeapEnvironment()
        expected = _World(oracle, program)
        expected_failures = []
        (drive if drive is _drive_process else _drive_run)(oracle, cuts, expected_failures, expected)
        for traced in (False, True):
            env = Environment()
            if traced:
                env.trace = []
            world = _World(env, program)
            failures = []
            drive(env, cuts, failures, world)
            assert world.log == expected.log, (drive.__name__, traced)
            assert failures == expected_failures, (drive.__name__, traced)
            assert env._seq == oracle._seq
            assert not env._ready and not env._queue
            if traced:
                assert _keys(env.trace) == oracle.trace, drive.__name__


@settings(max_examples=150, deadline=None)
@given(program=_PROGRAMS, cuts=_CUTS)
def test_two_queue_dispatch_matches_the_single_heap_kernel(program, cuts):
    _matches_the_oracle(program, cuts)


@settings(max_examples=100, deadline=None)
@given(program=_NESTED_PROGRAMS, cuts=_CUTS)
def test_nested_starts_match_the_single_heap_kernel(program, cuts):
    _matches_the_oracle(program, cuts)


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


def test_earlier_zero_delay_timers_beat_ready_entries():
    env = Environment()
    order = []
    env.timeout(0).add_callback(lambda _e: order.append("zero-delay timer"))
    env.event().succeed().add_callback(lambda _e: order.append("ready"))
    env.timeout(0).add_callback(lambda _e: order.append("later zero-delay timer"))
    env.run()
    assert order == ["zero-delay timer", "ready", "later zero-delay timer"]


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


# ------------------------------------------------------------- tasks, unit
@pytest.mark.parametrize("traced", [False, True])
def test_a_raising_task_fails_the_run_where_an_unwaited_process_would(traced):
    seen = []
    for launch in ("process", "spawn", "start"):
        env = Environment()
        env.trace = [] if traced else None
        order = []

        def failing():
            yield env.timeout(1)
            env.event().succeed().add_callback(lambda _e: order.append("same instant"))
            raise _Boom("late")

        if launch == "start":  # no bootstrap slot: pay it the way spawn does
            env.call_soon(lambda _arg: env.start(failing()))
        else:
            getattr(env, launch)(failing())
        env.timeout(1).add_callback(lambda _e: order.append("other timer"))
        env.timeout(2).add_callback(lambda _e: order.append("after"))
        with pytest.raises(_Boom, match="late"):
            env.run()
        failed_at = (env.now, env._seq, order[:], traced and _keys(env.trace))
        env.run()
        seen.append((failed_at, order, env._seq, _keys(env.trace)))
    assert seen[0] == seen[1] == seen[2]
    assert seen[0][0][2] == ["other timer", "same instant"]


@pytest.mark.parametrize("traced", [False, True])
def test_a_nested_start_that_raises_fails_the_run_at_its_queued_failure(traced):
    """The started task's failure is queued, not raised into the task that
    started it: that one runs on, and the run fails at the dispatch of the
    failure, after the entries queued before it."""
    seen = []
    for env in (SingleHeapEnvironment(), Environment()):
        if type(env) is Environment:
            env.trace = [] if traced else None
        order = []

        def child():
            order.append("child")
            raise _Boom("nested")
            yield  # a generator

        def parent():
            yield env.timeout(1)
            env.event().succeed().add_callback(lambda _e: order.append("queued before"))
            env.start(child())
            order.append("parent continues")
            yield env.timeout(1)
            order.append("parent done")

        env.spawn(parent())
        env.timeout(1).add_callback(lambda _e: order.append("other timer"))
        with pytest.raises(_Boom, match="nested"):
            env.run()
        failed_at = (env.now, env._seq, order[:])
        env.run()
        seen.append((failed_at, order, env._seq, traced and _keys(env.trace)))
    assert seen[0] == seen[1]
    assert seen[0][0] == (
        1, 6, ["other timer", "child", "parent continues", "queued before"])
    assert seen[0][1][-1] == "parent done"


def test_a_task_waiting_on_a_processed_event_resumes_through_a_wakeup():
    env = Environment()
    done = env.event()
    done.succeed("v")
    env.step()  # ``done`` is processed
    got = []

    def task():
        got.append((yield done))
        got.append((yield done))

    seq = env._seq
    env.start(task())
    assert got == [] and env._seq == seq + 1
    assert isinstance(env._ready[-1][3], _Wakeup)
    env.run()
    assert got == ["v", "v"]


def test_a_task_end_consumes_one_sequence_number_and_queues_only_when_traced():
    env = Environment()

    def quick():
        yield from ()

    seq = env._seq
    env.start(quick())
    assert env._seq == seq + 1
    assert not env._ready and not env._queue

    env.trace = []
    env.start(quick())
    assert env._seq == seq + 2 and len(env._ready) == 1
    env.run()
    assert _keys(env.trace) == [(0.0, 1, seq + 2)]


def test_start_rejects_a_non_generator():
    with pytest.raises(SimulationError, match="requires a generator"):
        Environment().start(42)
