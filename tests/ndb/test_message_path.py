"""The datanode schedules only what something waits on.

A delivered message's RECV job is submitted in the delivery itself, and
the redo/checkpoint bookkeeping no protocol step waits on (REP and IO
threads, redo and checkpoint bytes) is charged without a kernel entry.
"""

import re
from pathlib import Path

import pytest

import repro
import repro.ndb
from repro.ndb.messages import ReleaseLocksMsg
from repro.net.network import Message


def _schedule(env):
    return env._seq, list(env._queue), list(env._ready)


def _datanode(harness):
    return next(iter(harness.cluster.datanodes.values()))


def test_write_redo_schedules_nothing(harness):
    env = harness.env
    dn = _datanode(harness)
    before = _schedule(env)
    accounts = (dn.rep_pool.jobs_done, dn.io_pool.jobs_done, dn.disk.bytes_written)
    dn._write_redo()
    assert _schedule(env) == before
    costs = dn.costs
    assert (dn.rep_pool.jobs_done, dn.io_pool.jobs_done, dn.disk.bytes_written) == (
        accounts[0] + 1, accounts[1] + 1, accounts[2] + costs.redo_bytes_per_write)
    assert dn.rep_pool.busy_time == dn.io_pool.busy_time == costs.send_msg


def test_a_checkpoint_tick_schedules_only_its_next_interval(harness):
    env = harness.env
    cluster = harness.cluster
    dn = _datanode(harness)
    loop = cluster._checkpoint_loop(dn)
    next(loop)  # parked on its first interval timer
    seq, queue, ready = _schedule(env)
    io_busy, written = dn.io_pool.busy_time, dn.disk.bytes_written
    timer = loop.send(None)  # one tick, up to the next interval's timer
    assert env._seq == seq + 1 and list(env._ready) == ready
    assert sorted(env._queue) == sorted(queue + [(env.now + timer.delay, 1, seq + 1, timer)])
    assert dn.io_pool.busy_time == io_busy + cluster.config.costs.send_msg
    assert dn.disk.bytes_written == written + cluster.config.checkpoint_bytes
    loop.close()


@pytest.mark.parametrize("cores_busy", [False, True])
def test_delivery_submits_the_recv_job_in_the_same_dispatch(harness, cores_busy):
    env = harness.env
    dn = _datanode(harness)
    pool = dn.recv_pool
    if cores_busy:
        for _ in range(pool.cores):
            pool.submit(1.0)
    held = pool.in_service + pool.queue_length
    ready = len(env._ready)
    harness.network._deliver(
        Message(harness.client_addr, dn.addr, "release_locks", ReleaseLocksMsg(1)))
    assert pool.in_service + pool.queue_length == held + 1
    assert pool.queue_length == (1 if cores_busy else 0)
    assert len(env._ready) == ready
    env.run(until=env.now + 10)
    assert dn.ldm_pools[0].jobs_done == 1  # the handler ran after its RECV job


def test_nothing_submits_or_writes_to_the_bookkeeping_resources():
    """REP, IO and the NDB disk are charged only: a waited job there would
    be a kernel entry no protocol step needs."""
    scheduled = re.compile(r"(rep_pool|io_pool)\.submit\(|disk\.(write|read)\(")
    package = Path(repro.ndb.__file__).parent
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(package.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if scheduled.search(line)]
    assert hits == []


def test_thread_hand_offs_are_pool_calls():
    """Outside the kernel nothing puts a waiter in an event's slot (building
    an event with an empty one aside): a hand-off to a Table II thread is
    ``CorePool.call(cost, fn, arg)``."""
    waiter = re.compile(r"\._cb1 = (?!None\b)")
    package = Path(repro.__file__).parent
    hits = [f"{path.relative_to(package)}:{n}: {line.strip()}"
            for path in sorted(package.rglob("*.py")) if path.parent.name != "sim"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if waiter.search(line)]
    assert hits == []
