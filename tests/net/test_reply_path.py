"""A reply completes its RPC inside the delivery: what that path must keep.

``Network._deliver`` triggers the caller's event itself (success inline,
failure through ``fail()``); these pin the behaviours around it.
"""

import pytest

from repro.errors import HostUnreachableError, NetworkError, RpcTimeoutError
from repro.net import Message, Network, build_us_west1
from repro.obs import ObsContext
from repro.sim import Environment
from repro.types import NodeAddress, NodeKind

from .conftest import inbox


def _world():
    env = Environment()
    topo = build_us_west1()
    net = Network(env, topo)
    a = NodeAddress(NodeKind.CLIENT, 1)
    b = NodeAddress(NodeKind.CLIENT, 2)
    topo.add_host(a, az=1)
    topo.add_host(b, az=2)  # 0.360 ms each way
    return env, net, a, b, inbox(net, b)


def _replier(env, net, served, delay, **reply):
    def server():
        while True:
            msg = yield served.get()
            yield env.timeout(delay)
            net.reply(msg, **reply)

    env.process(server())


def test_a_reply_after_the_timeout_is_counted_late_and_dropped():
    env, net, a, b, served = _world()
    _replier(env, net, served, delay=5.0, payload="slow")

    def client():
        with pytest.raises(RpcTimeoutError):
            yield net.call(a, b, "ask", timeout_ms=2.0)
        yield env.timeout(10)  # the reply lands at 5.72 ms, long after
        return env.now

    env.run_process(client())
    assert net.late_replies == 1 and not net._pending


def test_a_failed_reply_with_a_plain_payload_raises_network_error():
    env, net, a, b, served = _world()
    _replier(env, net, served, delay=0.0, payload="no such key", ok=False)

    def client():
        with pytest.raises(NetworkError, match="remote error: 'no such key'"):
            yield net.call(a, b, "ask")
        return env.now

    assert env.run_process(client()) == pytest.approx(0.720)


def test_a_failed_reply_with_an_exception_raises_it():
    env, net, a, b, served = _world()
    _replier(env, net, served, delay=0.0, payload=KeyError("gone"), ok=False)

    def client():
        with pytest.raises(KeyError, match="gone"):
            yield net.call(a, b, "ask")
        return True

    assert env.run_process(client())


def test_a_reply_to_an_rpc_failed_by_a_partition_is_late():
    env, net, a, b, served = _world()
    _replier(env, net, served, delay=2.0, payload="after the heal")

    def cut_and_heal():
        yield env.timeout(1.0)
        net.partition_azs({1}, {2})  # fails the in-flight call now
        net.heal_partitions()        # so the reply gets through

    def client():
        with pytest.raises(HostUnreachableError):
            yield net.call(a, b, "ask")
        yield env.timeout(5)
        return env.now

    env.process(cut_and_heal())
    env.run_process(client())
    assert net.late_replies == 1


def test_a_reply_to_an_already_failed_rpc_is_ignored():
    """An RPC event failed by someone else while it is still pending: the
    reply neither re-triggers it nor counts as late."""
    env, net, a, b, served = _world()
    _replier(env, net, served, delay=1.0, payload="too late")
    call = net.call(a, b, "ask")
    call.fail(RuntimeError("abandoned by the caller"))
    call.defuse()
    env.run()
    assert not call.ok and isinstance(call.value, RuntimeError)
    assert net.late_replies == 0 and not net._pending


def test_a_successful_reply_consumes_one_ready_entry():
    env, net, a, b, served = _world()
    call = net.call(a, b, "ask")

    def take():
        return (yield served.get())

    request = env.run_process(take())
    seq = env._seq
    net._deliver(net.reply_message(request, "value"))
    assert env._seq == seq + 1 and env._ready[-1][3] is call
    env.run()
    assert call.value == "value"


def test_the_traced_call_span_closes_on_the_reply():
    env, net, a, b, served = _world()
    obs = ObsContext().attach(env)
    _replier(env, net, served, delay=1.0, payload="traced")

    def client():
        return (yield net.call(a, b, "ask"))

    assert env.run_process(client()) == "traced"
    (span,) = [s for s in obs.tracer.spans if s.name == "rpc.ask"]
    assert span.finished and span.tags["ok"] is True
    assert span.duration_ms == pytest.approx(1.720)


def test_reply_message_is_the_reply_and_rejects_non_rpcs():
    env, net, a, b, _served = _world()
    request = Message(a, b, "ask", "q", 64, rpc_id=7)
    reply = Network.reply_message(request, "r", False, 32)
    assert (reply.src, reply.dst, reply.kind, reply.payload, reply.size) == (b, a, "ask", "r", 32)
    assert (reply.rpc_id, reply.is_reply, reply.ok) == (7, True, False)
    with pytest.raises(NetworkError, match="not an RPC request"):
        net.reply_message(Message(a, b, "oneway"))
