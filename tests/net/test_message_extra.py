"""``Message.extra`` without a dict per message.

Every message starts with the same shared, read-only empty mapping; a
writer installs a dict of its own first.  So nothing written for one
message may ever show on another, and the shared default must come out of
any run — traced, robust, both — as empty as it went in.
"""

import pytest

from repro.hopsfs import RobustConfig
from repro.net import Message, Network, build_us_west1
from repro.net.network import _NO_EXTRA
from repro.obs import ObsContext
from repro.sim import Environment
from repro.types import NodeAddress, NodeKind

from ..hopsfs.conftest import make_fs, run
from .conftest import inbox


def _world(obs=None):
    env = Environment()
    if obs is not None:
        obs.attach(env)
    topo = build_us_west1()
    net = Network(env, topo)
    a = NodeAddress(NodeKind.CLIENT, 1)
    b = NodeAddress(NodeKind.CLIENT, 2)
    topo.add_host(a, az=1)
    topo.add_host(b, az=2)
    return env, net, a, b, inbox(net, b)


def test_default_extra_is_shared_empty_and_read_only():
    _env, _net, a, b, _served = _world()
    first, second = Message(a, b, "x"), Message(src=b, dst=a, kind="y")
    assert first.extra is second.extra is _NO_EXTRA
    assert first.extra.get("span_id") is None
    with pytest.raises(TypeError):
        first.extra["span_id"] = 1  # a writer must install its own dict
    assert not hasattr(first, "__dict__")
    assert len(_NO_EXTRA) == 0


def test_call_extra_is_copied_per_message():
    """The robust client hands one ``extra`` dict to the primary and the
    hedge; each request must carry its own copy."""
    env, net, a, b, served = _world()
    shared = {"deadline_ms": 50.0}
    net.call(a, b, "ping", extra=shared)
    net.call(a, b, "ping", extra=shared)
    net.call(a, b, "ping")
    env.run(until=10.0)
    m1, m2, m3 = (served.get().value for _ in range(3))
    assert m1.extra == m2.extra == shared
    assert m1.extra is not m2.extra and m1.extra is not shared
    m1.extra["retry_id"] = ("c", 1)
    assert "retry_id" not in m2.extra and "retry_id" not in shared
    assert m3.extra is _NO_EXTRA


def test_traced_call_writes_only_its_own_message():
    env, net, a, b, served = _world(obs=ObsContext())
    shared = {"deadline_ms": 50.0}
    net.call(a, b, "ping", extra=shared)
    net.call(a, b, "ping")
    net.send(Message(a, b, "oneway"))
    env.run(until=10.0)
    traced_with_extra, traced, oneway = (served.get().value for _ in range(3))
    assert set(traced_with_extra.extra) == {"deadline_ms", "span_id"}
    assert set(traced.extra) == {"span_id"}
    assert traced.extra["span_id"] != traced_with_extra.extra["span_id"]
    assert shared == {"deadline_ms": 50.0}
    assert oneway.extra is _NO_EXTRA and len(_NO_EXTRA) == 0


def test_deliver_resolves_the_route_of_a_message_that_skipped_send():
    env, net, a, b, _served = _world()
    message = Message(a, b, "direct", size=100)
    assert message.route is None
    net._deliver(message)
    assert net.traffic.messages == 1
    assert net.traffic.node[b].received == 100
    sent = Message(a, b, "sent", size=40)
    net.send(sent)
    assert sent.route is net._route(a, b)
    env.run(until=10.0)
    assert net.traffic.node[b].received == 140


@pytest.mark.parametrize("traced", [False, True])
def test_shared_default_survives_a_robust_run(traced):
    """Deadlines and retry ids (robust), span ids and NDB server spans
    (traced) all travel in ``extra``; none may land in the shared default."""
    fs = make_fs(num_namenodes=2, robust=RobustConfig())
    obs = ObsContext().attach(fs.env) if traced else None
    client = fs.client()

    def scenario():
        yield from fs.await_election()
        yield from client.mkdir("/d")
        yield from client.create("/d/f")
        yield from client.stat("/d/f")
        return (yield from client.listdir("/d"))

    assert run(fs, scenario()) == ["f"]
    assert len(_NO_EXTRA) == 0
    assert Message(client.addr, client.addr, "probe").extra is _NO_EXTRA
    if traced:
        names = {span.name for span in obs.tracer.spans}
        assert {"client.op", "rpc.fs_op", "nn.handle"} <= names
        assert any(name.startswith("ndb.") for name in names)
