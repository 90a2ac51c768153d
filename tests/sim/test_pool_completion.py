"""A pool job due next runs inside its completion, in queue order.

``CorePool._complete`` runs a finished ``call`` job's callback, or resumes
a ``submit`` waiter, inside the completion's own dispatch when the job's
entry would be the next one dispatched: the ready queue is empty,
``env.trace`` is off and nothing on the timer heap is due at ``now``.  It
still consumes the entry's sequence number.  Otherwise it queues the entry.
The reference is a pool that always queues it: in every situation below
the run must dispatch in the same ``(time, priority, seq)`` order and stop
where the reference stops.
"""

import sys
from heapq import heappush

import pytest

from repro.sim import CorePool, Environment
from repro.sim.kernel import PRIORITY_NORMAL, _Deferred
from repro.sim.resources import _Job


class QueuedPool(CorePool):
    """Reference: the finished job's entry always takes the ready queue."""

    def _complete(self, done):
        self.busy_time += done.cost
        self.jobs_done += 1
        if done.__class__ is _Job:
            done._value = None
        env = self.env
        env._seq += 1
        env._ready.append((env.now, PRIORITY_NORMAL, env._seq, done))
        if self._pending:
            job = self._pending.popleft()
            env._seq += 1
            heappush(env._queue, (env.now + job.cost, PRIORITY_NORMAL, env._seq,
                                  _Deferred(self._complete_cb, job)))
        else:
            self._free += 1


def _inside_completion():
    """Whether the caller runs inside ``CorePool._complete``."""
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code is CorePool._complete.__code__:
            return True
        frame = frame.f_back
    return False


SITUATIONS = ("alone", "heap entry", "ready entry", "next job due now", "horizon", "step",
              "traced")


def _run(pool_cls, how, situation):
    """One job of cost 1 issued at t=0 on a one-core pool, finishing into
    ``situation``.  Returns what is observable, and the completions that
    ran their job in place."""
    env = Environment()
    if situation == "traced":
        env.trace = []
    pool = pool_cls(env, 1)
    log, in_place = [], []

    def note(what):
        log.append((what, env.now, env._seq))

    def finished(what):
        note(what)
        in_place.append(_inside_completion())
        # Scheduling actions after the hand-off: their sequence numbers
        # show where the job ran.
        env.event().succeed().add_callback(lambda _e: note(f"{what}: follow-up"))
        env.timeout(0).add_callback(lambda _e: note(f"{what}: timer"))

    def waiting(what, cost):
        yield pool.submit(cost)
        finished(what)

    def issue(what, cost):
        if how == "call":
            pool.call(cost, finished, what)
        else:
            env.start(waiting(what, cost))

    if situation == "ready entry":
        # Due at t=1 before the completion: queues a same-instant entry.
        env.timeout(1).add_callback(
            lambda _e: env.event().succeed().add_callback(lambda _e: note("ready")))
    issue("job", 1.0)
    if situation == "heap entry":
        env.timeout(1).add_callback(lambda _e: note("timer"))  # after the job's entry
    elif situation == "next job due now":
        issue("next job", 0.0)
    elif situation != "alone":
        env.timeout(3).add_callback(lambda _e: note("later"))
    stops = []
    if situation == "horizon":
        env.run(until=1)  # the horizon is the completion's instant
        stops.append((env.now, env._seq, len(log)))
    elif situation == "step":
        while env.peek() != float("inf"):
            env.step()
            stops.append((env.now, env._seq, len(log)))
    env.run()
    trace = env.trace and [entry[:3] for entry in env.trace]
    return (log, stops, trace, env._seq, pool.jobs_done, pool.busy_time), in_place


@pytest.mark.parametrize("situation", SITUATIONS)
@pytest.mark.parametrize("how", ["call", "submit"])
def test_a_completion_dispatches_in_queue_order(how, situation):
    got, in_place = _run(CorePool, how, situation)
    expected, queued = _run(QueuedPool, how, situation)
    assert got == expected
    assert not any(queued)
    # Only a job whose entry nothing could precede, and no recorder must
    # see, runs in place.
    if situation == "alone":
        assert in_place == [True]
    else:
        assert not any(in_place) and in_place


@pytest.mark.parametrize("how", ["call", "submit"])
def test_the_run_stops_at_the_horizon_after_the_job_due_there(how):
    (log, stops, *_), _ = _run(CorePool, how, "horizon")
    # The job finishing at the horizon and its same-instant follow-ups ran
    # before the run stopped there; the later timer did not.
    assert [what for what, _at, _seq in log[:stops[0][2]]] == [
        "job", "job: follow-up", "job: timer"]
    assert stops[0][0] == 1 and log[3][:2] == ("later", 3.0)
