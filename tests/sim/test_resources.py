"""Unit tests for CorePool, Store, and Disk."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CorePool, Disk, Environment, Store


def test_corepool_serializes_on_one_core():
    env = Environment()
    pool = CorePool(env, cores=1)
    done_times = []

    def job(cost):
        yield pool.submit(cost)
        done_times.append(env.now)

    for cost in (2, 3, 5):
        env.process(job(cost))
    env.run()
    assert done_times == [2, 5, 10]
    assert pool.busy_time == 10
    assert pool.jobs_done == 3


def test_corepool_parallelism_matches_cores():
    env = Environment()
    pool = CorePool(env, cores=3)
    done_times = []

    def job():
        yield pool.submit(4)
        done_times.append(env.now)

    for _ in range(6):
        env.process(job())
    env.run()
    assert done_times == [4, 4, 4, 8, 8, 8]
    assert pool.busy_time == 24


def test_corepool_utilization():
    env = Environment()
    pool = CorePool(env, cores=2)

    def job():
        yield pool.submit(5)

    env.process(job())
    env.run(until=10)
    # one of two cores busy for 5 of 10ms: 5 core-ms of 20
    assert pool.busy_time == pytest.approx(5)


def test_corepool_rejects_bad_args():
    env = Environment()
    with pytest.raises(ValueError):
        CorePool(env, cores=0)
    pool = CorePool(env, cores=1)
    with pytest.raises(ValueError):
        pool.submit(-1)


def test_corepool_queue_length_visible():
    env = Environment()
    pool = CorePool(env, cores=1)

    def producer():
        for _ in range(4):
            pool.submit(10)
        yield env.timeout(0)
        assert pool.in_service == 1
        assert pool.queue_length == 3

    env.run_process(producer())


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    def producer():
        yield env.timeout(1)
        store.put("a")
        store.put("b")
        yield env.timeout(1)
        store.put("c")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == ["a", "b", "c"]


def test_store_get_before_put_blocks():
    env = Environment()
    store = Store(env)
    times = []

    def consumer():
        item = yield store.get()
        times.append((env.now, item))

    def producer():
        yield env.timeout(5)
        store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert times == [(5, "late")]


def test_store_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(tag):
        item = yield store.get()
        got.append((tag, item))

    env.process(consumer("first"))
    env.process(consumer("second"))

    def producer():
        yield env.timeout(1)
        store.put(1)
        store.put(2)

    env.process(producer())
    env.run()
    assert got == [("first", 1), ("second", 2)]


def test_disk_bandwidth_and_queuing():
    env = Environment()
    disk = Disk(env, bandwidth_bytes_per_ms=100)
    done = []

    def writer(nbytes):
        yield disk.write(nbytes)
        done.append(env.now)

    env.process(writer(200))  # 2ms
    env.process(writer(300))  # queued: finishes at 5ms
    env.run()
    assert done == [2, 5]
    assert disk.bytes_written == 500
    assert disk.busy_time == pytest.approx(5)


def test_disk_idle_gap_not_counted_busy():
    env = Environment()
    disk = Disk(env, bandwidth_bytes_per_ms=100)

    def writer():
        yield disk.write(100)  # 1ms
        yield env.timeout(10)
        yield disk.write(100)  # 1ms more

    env.run_process(writer())
    assert env.now == pytest.approx(12) and disk.busy_time == pytest.approx(2)


def test_disk_rejects_zero_bandwidth():
    env = Environment()
    with pytest.raises(ValueError):
        Disk(env, bandwidth_bytes_per_ms=0)


# ------------------------------------------------ accounting nobody waits on
def test_corepool_charge_accounts_the_job_and_schedules_nothing():
    env = Environment()
    pool = CorePool(env, cores=1)
    seq = env._seq
    pool.charge(2.5)
    pool.charge(0.5)
    assert pool.busy_time == 3.0 and pool.jobs_done == 2
    assert env._seq == seq and not env._queue and not env._ready
    # It holds no core: a waited job right after it is served at once.
    assert pool.in_service == 0 and pool.queue_length == 0
    with pytest.raises(ValueError):
        pool.charge(-1)


def _drain_times(first_is_append):
    env = Environment()
    disk = Disk(env, bandwidth_bytes_per_ms=100)
    done = []

    def writer():
        yield env.timeout(1)
        if first_is_append:
            disk.append(300)
        else:
            disk.write(300)
        yield disk.write(200)
        done.append(env.now)

    env.run_process(writer())
    return disk, done


def test_disk_append_accounts_exactly_what_write_would():
    appended, appended_done = _drain_times(first_is_append=True)
    written, written_done = _drain_times(first_is_append=False)
    for attr in ("bytes_written", "busy_time", "_drain_at"):
        assert getattr(appended, attr) == getattr(written, attr), attr
    # The waited write queued behind the append completes as behind a write.
    assert appended_done == written_done == [6]


def test_disk_append_schedules_nothing():
    env = Environment()
    disk = Disk(env, bandwidth_bytes_per_ms=100)
    seq = env._seq
    disk.append(1000)
    assert env._seq == seq and not env._queue and not env._ready
    assert disk.bytes_written == 1000 and disk._drain_at == 10


# ------------------------------------------------- a hand-off is a callback
# One job of a program: (issued at, cost, how, follow-ups).  "call" jobs are
# ``pool.call``; "process" jobs are a process waiting on ``pool.submit``.  A
# finished job issues its follow-up (same cost and kind) from its own
# callback, so completions and queueing interleave.
_JOBS = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.sampled_from([0.0, 0.5, 1.0, 2.5]),
              st.sampled_from(["call", "process"]), st.integers(0, 2)),
    min_size=1, max_size=14,
)


def _run_jobs(cores, jobs, use_call, traced):
    """The program on a fresh pool: ``call`` jobs as calls, or (reference)
    as ``submit`` with a ``partial`` waiter.  Returns everything observable."""
    env = Environment()
    if traced:
        env.trace = []
    pool = CorePool(env, cores)
    log = []

    def finished(job):
        ident, cost, how, left = job
        log.append((env.now, ident, how))
        if left:
            issue((ident, cost, how, left - 1))

    def waited(job, _event):
        finished(job)

    def waiting(job):
        yield pool.submit(job[1])
        finished(job)

    def issue(job):
        if job[2] == "process":
            env.process(waiting(job))
        elif use_call:
            pool.call(job[1], finished, job)
        else:
            pool.submit(job[1]).add_callback(partial(waited, job))

    for ident, (at, cost, how, left) in enumerate(jobs):
        env.schedule_at(at, issue, (ident, cost, how, left))
    env.run()
    trace = env.trace and [entry[:3] for entry in env.trace]
    return log, trace, env._seq, pool.jobs_done, pool.busy_time, pool.queue_length


@settings(max_examples=120, deadline=None)
@given(cores=st.sampled_from([1, 3]), jobs=_JOBS)
def test_call_is_submit_with_a_callback_waiter(cores, jobs):
    for traced in (False, True):
        got = _run_jobs(cores, jobs, use_call=True, traced=traced)
        assert got == _run_jobs(cores, jobs, use_call=False, traced=traced)
    assert got[0] == _run_jobs(cores, jobs, use_call=True, traced=False)[0]


def test_call_queues_behind_busy_cores():
    env = Environment()
    pool = CorePool(env, cores=1)
    done = []
    for cost in (2, 3, 5):
        pool.call(cost, done.append, cost)
    assert pool.in_service == 1 and pool.queue_length == 2
    env.run()
    assert done == [2, 3, 5] and env.now == 10
    assert pool.busy_time == 10 and pool.jobs_done == 3
    with pytest.raises(ValueError):
        pool.call(-1, done.append, None)


# ------------------------------------ a callback chain replays its task
# One handler of a program: (issued at, its stages as (pool, cost), the
# stage it returns early at).  Pool 2 is no thread but a wait on an event
# (a timer of that cost, as a lock grant or an RPC reply is).  As a task it
# waits on ``submit`` (or the event) per stage; as a chain each stage is a
# ``call`` (or a ``partial`` registered on the event) whose callback issues
# the next, and the chain ends with ``env.end_task()`` where the task ended.
_HANDLERS = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 1.0]),
              st.lists(st.tuples(st.integers(0, 2), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
                       max_size=3),
              st.integers(0, 3)),
    min_size=1, max_size=8,
)


def _run_handlers(handlers, as_chain, traced):
    """The program with every handler as a task or as a callback chain.
    Returns everything observable."""
    env = Environment()
    if traced:
        env.trace = []
    pools = [CorePool(env, 1), CorePool(env, 2)]  # one core: jobs queue
    log = []

    def task(ident, stages, stop):
        for index, (pool, cost) in enumerate(stages):
            if index == stop:
                break  # an early return
            yield env.timeout(cost) if pool == 2 else pools[pool].submit(cost)
            log.append((env.now, ident, index))
            env.event().succeed()  # a scheduling action after the wait
        log.append((env.now, ident, "end"))

    def stage(job):
        ident, stages, stop, index = job
        if index:
            log.append((env.now, ident, index - 1))
            env.event().succeed()
        if index == len(stages) or index == stop:
            log.append((env.now, ident, "end"))
            env.end_task()
            return
        pool, cost = stages[index]
        job = (ident, stages, stop, index + 1)
        if pool == 2:
            env.timeout(cost).add_callback(partial(waited, job))
        else:
            pools[pool].call(cost, stage, job)

    def waited(job, _event):
        stage(job)

    def issue(handler):
        ident, stages, stop = handler
        if as_chain:
            stage((ident, stages, stop, 0))
        else:
            env.start(task(ident, stages, stop))

    for ident, (at, stages, stop) in enumerate(handlers):
        env.schedule_at(at, issue, (ident, stages, stop))
    env.run()
    trace = env.trace and [entry[:3] for entry in env.trace]
    return (log, trace, env._seq, [(p.jobs_done, p.busy_time) for p in pools])


@settings(max_examples=120, deadline=None)
@given(handlers=_HANDLERS)
def test_a_callback_chain_ending_in_end_task_replays_its_task(handlers):
    for traced in (False, True):
        got = _run_handlers(handlers, as_chain=True, traced=traced)
        assert got == _run_handlers(handlers, as_chain=False, traced=traced)


@pytest.mark.parametrize("traced", [False, True])
def test_chains_queued_behind_a_busy_core_end_where_their_tasks_do(traced):
    # Three handlers at one instant on the one-core pool, one returning
    # before its second stage, one with no stage at all.
    handlers = [(0.0, [(0, 2.0), (0, 1.0)], 3), (0.0, [(0, 1.0), (0, 1.0)], 1),
                (0.0, [], 0), (0.5, [(0, 0.5)], 3)]
    chain = _run_handlers(handlers, as_chain=True, traced=traced)
    assert chain == _run_handlers(handlers, as_chain=False, traced=traced)
    log, trace, seq, pools = chain
    assert [entry for entry in log if entry[2] == "end"] == [
        (0.0, 2, "end"), (3.0, 1, "end"), (3.5, 3, "end"), (4.5, 0, "end")]
    assert pools[0] == (4, 4.5)
    if traced:
        assert len(trace) == seq  # every end queued its entry
