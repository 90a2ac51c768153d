"""``close()`` ends a task or process where it waits.

A crashed server closes the drivers of its in-flight work.  The generator
ends at once, its ``finally`` blocks running once, at the close; the driver
stays registered where it waited, and the wake-up that would have resumed
it, success or failure, ends it instead, without failing the run, with the
sequence number a generator returning there takes.  So each closed run
must dispatch exactly the schedule of a twin generator that returns at
that wake-up, and one that is never woken leaves nothing to run.
"""

import pytest

from repro.errors import HostUnreachableError
from repro.sim import DispatchHash, Environment

LAUNCHES = ["start", "spawn", "process"]
FATES = ["succeeds", "fails", "never"]


def _launch(env, how, generator):
    return getattr(env, how)(generator)


def _run(how, fate, closed):
    """One run: a driver parks on ``event`` at t=0; with ``closed`` it is
    closed at t=1; ``event`` then meets its ``fate`` at t=2.  Returns the
    dispatch hash and the log."""
    env = Environment()
    env.trace = DispatchHash()
    event = env.event()
    log = []

    def body():
        try:
            yield event
            log.append(("resumed", env.now))
        finally:
            log.append(("finally", env.now))

    def twin():
        # Returns at the wake-up, whatever it brings.
        try:
            yield event
        except HostUnreachableError:
            pass

    driver = _launch(env, how, body() if closed else twin())
    # The twin's run keeps the close's slot, so only the close differs.
    env.schedule_at(1.0, lambda _arg: driver.close() if closed else None)
    if fate == "succeeds":
        env.schedule_at(2.0, lambda _arg: event.succeed("late"))
    elif fate == "fails":
        env.schedule_at(2.0, lambda _arg: event.fail(HostUnreachableError("peer gone")))
    env.schedule_at(3.0, lambda _arg: log.append(("later", env.now)))
    env.run()  # does not raise: a failure that wakes a closed driver is absorbed
    return env.trace.hexdigest(), log


@pytest.mark.parametrize("fate", FATES)
@pytest.mark.parametrize("how", LAUNCHES)
def test_a_closed_driver_ends_as_a_twin_returning_at_its_wake_up(how, fate):
    closed_hash, log = _run(how, fate, closed=True)
    twin_hash, _twin_log = _run(how, fate, closed=False)
    assert log == [("finally", 1.0), ("later", 3.0)]  # once, at the close
    assert closed_hash == twin_hash


@pytest.mark.parametrize("how", LAUNCHES)
def test_closing_twice_or_after_the_end_does_nothing(how):
    env = Environment()
    log = []

    def body():
        try:
            yield env.timeout(1.0)
        finally:
            log.append(env.now)

    driver = _launch(env, how, body())
    env.run(until=0.5)
    driver.close()
    driver.close()
    env.run()
    driver.close()
    assert log == [0.5]


def test_a_process_closed_before_its_first_step_never_runs():
    _closed_before_its_first_step("process")


def test_a_spawned_task_closed_before_its_first_step_never_runs():
    _closed_before_its_first_step("spawn")


def _closed_before_its_first_step(how):
    def run(closed):
        env = Environment()
        env.trace = DispatchHash()
        log = []

        def body():
            log.append("ran")
            yield env.timeout(1.0)

        def twin():
            return
            yield  # a generator that returns at its first step

        driver = _launch(env, how, body() if closed else twin())
        if closed:
            driver.close()
        env.run()
        return env.trace.hexdigest(), log

    closed_hash, log = run(True)
    assert log == []
    assert closed_hash == run(False)[0]


@pytest.mark.parametrize("how", LAUNCHES)
def test_a_driver_closed_inside_its_own_step_finishes_that_step(how):
    """A server that crashes under the request it is serving: the step runs
    on, and the generator closes as the step yields; its wait ends it."""

    def run(closed):
        env = Environment()
        env.trace = DispatchHash()
        log = []
        drivers = []

        def body():
            yield env.timeout(1.0)
            if closed:
                drivers[0].close()
            log.append(("step ran on", env.now))
            try:
                yield env.timeout(1.0)
                log.append(("resumed", env.now))
            finally:
                log.append(("finally", env.now))

        drivers.append(_launch(env, how, body()))
        env.schedule_at(5.0, lambda _arg: log.append(("later", env.now)))
        env.run()
        return env.trace.hexdigest(), log

    closed_hash, log = run(True)
    assert log == [("step ran on", 1.0), ("finally", 1.0), ("later", 5.0)]
    _hash, twin_log = run(False)
    assert twin_log == [("step ran on", 1.0), ("resumed", 2.0), ("finally", 2.0),
                        ("later", 5.0)]
    # The twin of the closed run returns at its wake-up at t=2: the same
    # sequence numbers, since resuming into the finally schedules nothing.
    assert closed_hash == _hash


def test_a_closed_process_lets_go_of_its_waiters():
    """What waits on closed work is closed work too: a condition over a
    closed process whose wake-up never comes is let go of, so the two hold
    no reference cycle; the process still ends at a wake-up that comes."""
    env = Environment()
    never, later = env.event(), env.event()

    def body():
        yield later

    proc = env.process(body())
    cond = env.all_of([proc, never])
    env.run()
    assert proc._cb1 == cond._observe
    proc.close()
    assert proc._cb1 is None and proc._cbs is None
    later.succeed()
    env.run()
    assert not proc.is_alive and not cond.triggered
