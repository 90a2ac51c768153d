"""``HopsFsClient.op``: one request loop, one traced wrapper.

``op`` is a plain function.  Untraced it returns the request loop's own
generator (no wrapper frame), with or without ``robust``; traced it
returns the wrapper around that same loop.  Either way the caller gets the
same result at the same simulated instant, and reads its own op's failure
count from ``last_op_failures`` the moment its ``yield from`` returns —
also when several ops are in flight on one stub.
"""

import inspect

import pytest

from repro.hopsfs import RobustConfig
from repro.metrics.collectors import MetricsCollector
from repro.obs import ObsContext
from repro.types import OpResult, OpType

from .conftest import make_fs, run


def _by_addr(fs, addr):
    return next(nn for nn in fs.namenodes if nn.addr == addr)


def _failover_run(robust, traced):
    """mkdir, then stat across the death of the NN the client sticks to."""
    fs = make_fs(num_namenodes=2, robust=RobustConfig() if robust else None)
    obs = ObsContext().attach(fs.env) if traced else None
    client = fs.client()
    assert client.last_op_failures == 0  # exists before any op has run

    def scenario():
        yield from fs.await_election()
        yield from client.mkdir("/d")
        clean = client.last_op_failures
        _by_addr(fs, client.current_nn).shutdown()
        inode = yield from client.op(OpType.STAT, path="/d")
        return clean, inode.name, client.last_op_failures, fs.env.now

    return run(fs, scenario()), client, obs


@pytest.mark.parametrize("robust", [False, True])
def test_traced_and_untraced_failover_op_agree(robust):
    plain, plain_client, _ = _failover_run(robust, traced=False)
    traced, traced_client, obs = _failover_run(robust, traced=True)
    assert plain == traced  # same result, same count, same simulated instant
    clean, name, failures, _now = plain
    assert (clean, name, failures) == (0, "d", 1)
    assert plain_client.failovers == traced_client.failovers == 1
    # The wrapper recorded what the loop counted.
    spans = [s for s in obs.tracer.spans if s.name == "client.op"]
    assert [s.tags["retries"] for s in spans] == [0, 1]
    assert all(s.tags["ok"] for s in spans)


@pytest.mark.parametrize("robust", [False, True])
def test_untraced_op_is_the_request_loop_itself(robust):
    fs = make_fs(robust=RobustConfig() if robust else None)
    client = fs.client()
    gen = client.op(OpType.STAT, path="/")
    assert inspect.isgenerator(gen)
    assert gen.gi_code is type(client)._request_loop.__code__
    gen.close()
    ObsContext().attach(fs.env)
    traced = client.op(OpType.STAT, path="/")
    assert traced.gi_code.co_name == "_traced_op"
    traced.close()


def test_parked_fail_stop_op_sits_in_one_client_frame():
    """An untraced fail-stop op waiting on its ``fs_op`` reply is the loop's
    own frame: nothing else is on its ``gi_yieldfrom`` chain."""
    fs = make_fs()
    client = fs.client()
    parked = []

    def driver():
        yield from fs.await_election()
        yield from client.exists("/")  # bound to an NN: no discovery below
        gen = client.op(OpType.STAT, path="/")
        rpc = next(gen)  # runs up to the fs_op RPC and parks there
        chain = [gen]
        while chain[-1].gi_yieldfrom is not None:
            chain.append(chain[-1].gi_yieldfrom)
        parked.append([g.gi_code.co_name for g in chain])
        reply = yield rpc
        try:
            gen.send(reply)
        except StopIteration as stop:
            return stop.value

    assert run(fs, driver()) is not None
    assert parked == [["_request_loop"]]


@pytest.mark.parametrize("robust", [False, True])
def test_failed_op_reports_its_failures(robust):
    fs = make_fs(num_namenodes=2, robust=RobustConfig() if robust else None)
    client = fs.client()

    def scenario():
        yield from fs.await_election()
        yield from client.exists("/")
        for nn in fs.namenodes:
            nn.shutdown()
        with pytest.raises(Exception) as caught:
            yield from client.mkdir("/nope")
        return type(caught.value).__name__, client.last_op_failures

    error, failures = run(fs, scenario())
    assert error == "NoNamenodeError"
    assert failures >= 1  # set on the failing exit too


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("robust", [False, True])
def test_overlapping_ops_on_one_stub_each_record_their_own_count(robust, traced):
    """Open-loop drivers and the scale engine keep several ops in flight on
    one stub.  ``slow`` fails over once while ``quick`` runs start to finish
    inside it; each must see its own count, not the other's."""
    fs = make_fs(num_namenodes=2, robust=RobustConfig() if robust else None)
    if traced:
        ObsContext().attach(fs.env)
    client = fs.client()
    env = fs.env
    collector = MetricsCollector()
    collector.open_window(0.0)
    seen = {}

    def one_op(tag, path):
        start = env.now
        yield from client.op(OpType.STAT, path=path)
        # What the drivers do, the moment the op returns.
        seen[tag] = (client.last_op_failures, start, env.now)
        collector.record(
            OpResult(OpType.STAT, start, env.now, True, client.last_op_failures)
        )

    def scenario():
        yield from fs.await_election()
        yield from client.mkdir("/d")
        victim = _by_addr(fs, client.current_nn)
        slow = env.process(one_op("slow", "/d"))
        yield env.timeout(0.0)  # slow's request is on the wire
        victim.shutdown()  # ... and dies with the NN: slow fails over
        while client.current_nn is None or client.current_nn == victim.addr:
            yield env.timeout(0.01)
        quick = env.process(one_op("quick", "/"))
        yield quick
        yield slow

    run(fs, scenario())
    assert seen["slow"][0] == 1
    assert seen["quick"][0] == 0
    # They did overlap: quick started after slow and before slow finished.
    assert seen["slow"][1] < seen["quick"][1] < seen["slow"][2]
    assert collector.retried == 1
