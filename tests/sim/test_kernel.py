"""Unit tests for the DES kernel."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, SimulationError


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5)
        assert env.now == 5
        yield env.timeout(2.5)
        return env.now

    assert env.run_process(proc()) == 7.5
    assert env.now == 7.5


def test_timeout_value_passthrough():
    env = Environment()

    def proc():
        got = yield env.timeout(1, value="hello")
        return got

    assert env.run_process(proc()) == "hello"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        value = yield gate
        log.append((env.now, value))

    def opener():
        yield env.timeout(3)
        gate.succeed(42)

    env.process(waiter())
    env.process(opener())
    env.run()
    assert log == [(3, 42)]


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def waiter():
        with pytest.raises(ValueError):
            yield gate
        return "handled"

    def failer():
        yield env.timeout(1)
        gate.fail(ValueError("boom"))

    proc = env.process(waiter())
    env.process(failer())
    env.run()
    assert proc.value == "handled"


def test_unhandled_failure_propagates_from_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_event_cannot_trigger_twice():
    env = Environment()
    gate = env.event()
    gate.succeed()
    with pytest.raises(SimulationError):
        gate.succeed()


@pytest.mark.parametrize("not_a_generator", [None, 42, "text", [1, 2], lambda: None])
def test_process_rejects_a_non_generator_before_scheduling(not_a_generator):
    env = Environment()
    env.timeout(1)
    seq, ready, queued = env._seq, len(env._ready), len(env._queue)
    with pytest.raises(SimulationError, match="requires a generator"):
        env.process(not_a_generator)
    # Rejected before the bootstrap wakeup: no sequence number, no entry.
    assert (env._seq, len(env._ready), len(env._queue)) == (seq, ready, queued)


def test_process_waits_on_process():
    env = Environment()

    def child():
        yield env.timeout(4)
        return "child-result"

    def parent():
        result = yield env.process(child())
        return (env.now, result)

    assert env.run_process(parent()) == (4, "child-result")


def test_waiting_on_finished_process_resumes_immediately():
    env = Environment()

    def child():
        yield env.timeout(1)
        return "done"

    def parent():
        proc = env.process(child())
        yield env.timeout(10)
        result = yield proc  # already processed
        return (env.now, result)

    assert env.run_process(parent()) == (10, "done")


def test_all_of_waits_for_all():
    env = Environment()

    def proc():
        t1 = env.timeout(3, value="a")
        t2 = env.timeout(7, value="b")
        results = yield AllOf(env, [t1, t2])
        return (env.now, sorted(results.values()))

    assert env.run_process(proc()) == (7, ["a", "b"])


def test_any_of_returns_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(3, value="fast")
        t2 = env.timeout(7, value="slow")
        results = yield AnyOf(env, [t1, t2])
        return (env.now, list(results.values()))

    assert env.run_process(proc()) == (3, ["fast"])


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def proc():
        yield AllOf(env, [])
        return env.now

    assert env.run_process(proc()) == 0


def test_run_until_stops_clock():
    env = Environment()
    ticks = []

    def ticker():
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(ticker())
    env.run(until=5)
    assert env.now == 5
    assert ticks == [1, 2, 3, 4, 5]


def test_determinism_fifo_at_same_time():
    """Events scheduled for the same instant fire in schedule order."""
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in range(10):
        env.process(proc(tag))
    env.run()
    assert order == list(range(10))


def test_yield_non_event_raises():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_yield_non_event_fails_process_cleanly():
    """Regression: the non-event error used to be thrown into the generator
    AND re-raised, corrupting the generator mid-unwind.  Now it is thrown
    once; if the generator does not convert it, the process fails and the
    generator is closed."""
    env = Environment()
    cleanup = []

    def bad():
        try:
            yield 42
        finally:
            cleanup.append("closed")

    proc = env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()
    assert cleanup == ["closed"]  # generator unwound exactly once
    assert proc.triggered and not proc._ok


def test_yield_non_event_generator_may_recover():
    """The throw happens inside the generator first, so it may convert the
    error into a normal return."""
    env = Environment()

    def survivor():
        try:
            yield "not an event"
        except SimulationError:
            return "recovered"

    assert env.run_process(survivor()) == "recovered"


def test_any_of_collects_same_step_triggered_events():
    """Regression: events that triggered in the same step but were not yet
    processed were silently dropped from the AnyOf result dict."""
    env = Environment()

    def proc():
        e1 = env.event()
        e2 = env.event()
        trigger = env.timeout(5)
        yield trigger
        # Both succeed at t=5: e2 is triggered-but-unprocessed when the
        # AnyOf fires on e1.
        e1.succeed("first")
        e2.succeed("second")
        results = yield AnyOf(env, [e1, e2])
        return (env.now, sorted(results.values()))

    assert env.run_process(proc()) == (5, ["first", "second"])


def test_any_of_excludes_pending_timeouts():
    """A Timeout is 'triggered' at creation but due in the future; AnyOf
    must not return it before its delay elapses."""
    env = Environment()

    def proc():
        fast = env.timeout(1, value="fast")
        slow = env.timeout(9, value="slow")
        results = yield AnyOf(env, [fast, slow])
        return (env.now, list(results.values()))

    assert env.run_process(proc()) == (1, ["fast"])


def test_run_process_detects_deadlock():
    env = Environment()

    def stuck():
        yield env.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        env.run_process(stuck())


def test_aborted_run_leaves_a_valid_heap():
    """A callback raising mid-``run(until=...)`` must not corrupt the queue.

    ``run`` drops its unused horizon sentinel on the way out; doing that
    with ``list.remove`` alone breaks the heap invariant, so the resumed run
    dispatched out of time order.
    """
    import random

    rng = random.Random(7)
    for _trial in range(50):
        env = Environment()
        fired = []
        delays = [rng.uniform(0.0, 100.0) for _ in range(60)]
        for delay in delays:
            env.schedule_after(delay, fired.append, delay)

        def boom(_arg):
            raise RuntimeError("boom")

        env.schedule_after(rng.uniform(1.0, 20.0), boom)
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=rng.uniform(30.0, 90.0))
        assert env.peek() >= env.now
        env.run()  # resume: everything still queued fires, in time order
        assert fired == sorted(delays)


def test_run_propagates_a_process_index_error():
    """``run()`` must not mistake a process's own ``IndexError`` for the end
    of the schedule: raised by the last scheduled thing, it used to vanish."""
    env = Environment()

    def proc():
        yield env.timeout(1)
        [][0]

    env.process(proc())
    with pytest.raises(IndexError):
        env.run()
