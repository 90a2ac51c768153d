"""The datanode schedules only what something waits on.

A delivered message's RECV job is submitted in the delivery itself, the
redo/checkpoint bookkeeping no protocol step waits on (REP and IO threads,
redo and checkpoint bytes) is charged without a kernel entry, and a message
is a callback chain to its end: thread hand-offs are pool calls, and a wait
on a lock, an RPC reply or a chain ack is a stage registered on its event.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

import repro
import repro.ndb
from repro.ndb import LockMode
from repro.ndb.datanode import NdbDatanode
from repro.ndb.messages import PrepareFailedMsg, ReleaseLocksMsg
from repro.net.network import Message, Network
from repro.obs import ObsContext
from repro.sim import Environment

from .conftest import build_harness


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
    loop = dn._checkpoint_loop()
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


# ------------------------------------------- a message is a callback chain
KEYS = [f"k{i}" for i in range(8)]


def _exercise(harness):
    """Writes, a commit with writes, lock-free reads and scans (local and
    remote), a read-only commit, a locked read, an abort, heartbeats and an
    ack for a transaction nobody knows."""
    api = harness.api

    def scenario():
        txn = api.transaction(hint_table="t", hint_key="k0")
        for key in KEYS:
            yield from txn.write("t", key, key)
        yield from txn.commit()
        txn = api.transaction(hint_table="t", hint_key="k0")
        for key in KEYS:
            yield from txn.read("t", key)
            yield from txn.scan("t", key)
        yield from txn.commit()
        txn = api.transaction(hint_table="t", hint_key="k0")
        yield from txn.read("t", "k3", lock=LockMode.SHARED)
        yield from txn.commit()
        txn = api.transaction(hint_table="t", hint_key="k0")
        yield from txn.write("t", "gone", 1)
        yield from txn.abort()

    harness.run(scenario())
    dn = next(iter(harness.cluster.datanodes.values()))
    harness.network.send(
        Message(harness.client_addr, dn.addr, "prepare_failed", PrepareFailedMsg(999, 0, "x")))
    harness.env.run(until=harness.env.now + 200)


def _spy_handlers(monkeypatch):
    """Record ``(msg, returned)`` for every message a handler runs."""
    handled = []
    for kind, handler in NdbDatanode._HANDLERS.items():
        def spy(node, msg, _handler=handler):
            body = _handler(node, msg)
            handled.append((msg, body))
            return body

        monkeypatch.setitem(NdbDatanode._HANDLERS, kind, spy)
    return handled


def test_converted_kinds_start_no_task(monkeypatch):
    started = Counter()
    real_start = Environment.start

    def start(env, generator):
        started[generator.__qualname__] += 1
        real_start(env, generator)

    harness = build_harness(heartbeats=True)
    handled = _spy_handlers(monkeypatch)
    monkeypatch.setattr(Environment, "start", start)
    _exercise(harness)
    kinds = Counter(msg.kind for msg, _body in handled)
    assert set(kinds) == set(NdbDatanode._HANDLERS), kinds  # every kind ran
    locked = [msg for msg, _body in handled
              if msg.kind in ("tc_read", "ldm_read") and msg.payload.lock is not LockMode.NONE]
    assert len(locked) in (1, 2)  # the TC's, and the primary's when remote
    # Lock grants, RPC replies and chain acks are waited stages too: no
    # handler returns a task body, and no datanode method runs as a task.
    assert [msg.kind for msg, body in handled if body is not None] == []
    assert {name: n for name, n in started.items() if name.startswith("NdbDatanode.")} == {}
    # Both halves of the lock-free path ran: reads the TC served itself
    # and reads it forwarded to a remote LDM (the RPC reply a stage).
    assert kinds["ldm_read"] + kinds["ldm_scan"] < 2 * len(KEYS)
    assert kinds["ldm_read"] > 0 and kinds["ldm_scan"] > 0


def test_a_traced_message_keeps_its_server_span(monkeypatch):
    """Each traced kind's ``ndb.<kind>`` span is the child of its RPC span,
    opens when its RECV job ends and closes with its reply, at whichever
    stage the message's chain ends."""
    harness = build_harness()
    obs = ObsContext()
    obs.attach(harness.env)
    received, replied = [], {}
    real_received, real_reply = NdbDatanode._received, Network.reply_message

    def spy_received(node, msg):
        received.append((msg, node.env.now))
        real_received(node, msg)

    def spy_reply(request, *args):
        replied[id(request)] = harness.env.now
        return real_reply(request, *args)

    monkeypatch.setattr(NdbDatanode, "_received", spy_received)
    monkeypatch.setattr(Network, "reply_message", staticmethod(spy_reply))
    _exercise(harness)
    by_id = {span.span_id: span for span in obs.tracer.spans}
    seen = Counter()
    for msg, at in received:
        if msg.kind not in NdbDatanode._TRACED_KINDS:
            assert "server_span" not in msg.extra
            continue
        seen[msg.kind] += 1
        span = msg.extra["server_span"]
        assert span.name == f"ndb.{msg.kind}"
        assert span.parent_id == msg.extra["span_id"]
        assert by_id[span.parent_id].name == f"rpc.{msg.kind}"
        assert (span.start_ms, span.end_ms) == (at, replied[id(msg)])
        if msg.kind in ("ldm_read", "ldm_scan"):
            # The forwarding TC's server span is the RPC's parent.
            assert by_id[by_id[span.parent_id].parent_id].name in ("ndb.tc_read", "ndb.tc_scan")
    assert set(seen) == NdbDatanode._TRACED_KINDS
