"""Tests for traffic accounting and the inter-AZ fabric cap."""

import pytest

from repro.net import Message, Network, build_us_west1
from repro.sim import Environment
from repro.types import NodeAddress, NodeKind

from .conftest import inbox


def _world(az_link_bandwidth=None):
    env = Environment()
    topo = build_us_west1()
    net = Network(env, topo, az_link_bandwidth_bytes_per_ms=az_link_bandwidth)
    a = NodeAddress(NodeKind.CLIENT, 1)
    b = NodeAddress(NodeKind.CLIENT, 2)
    c = NodeAddress(NodeKind.CLIENT, 3)
    topo.add_host(a, az=1)
    topo.add_host(b, az=2)
    topo.add_host(c, az=1)
    return env, net, a, b, c


def test_fabric_cap_queues_cross_az_only():
    # 100 bytes/ms fabric: a 1000-byte cross-AZ message takes 10ms extra.
    env, net, a, b, c = _world(az_link_bandwidth=100)
    got = []

    def rx(addr, tag):
        served = inbox(net, addr)

        def loop():
            yield served.get()
            got.append((tag, env.now))

        return loop

    env.process(rx(b, "cross")())
    env.process(rx(c, "local")())
    net.send(Message(src=a, dst=b, kind="x", size=1000))
    net.send(Message(src=a, dst=c, kind="y", size=1000))
    env.run()
    times = dict(got)
    assert times["local"] == pytest.approx(0.247)  # latency only
    assert times["cross"] == pytest.approx(0.360 + 10.0)  # + fabric drain


def test_fabric_serializes_messages():
    env, net, a, b, c = _world(az_link_bandwidth=100)
    arrivals = []
    served = inbox(net, b)

    def rx():
        while True:
            yield served.get()
            arrivals.append(env.now)

    env.process(rx())
    for _ in range(3):
        net.send(Message(src=a, dst=b, kind="x", size=500))
    env.run(until=100)
    # each 500B message takes 5ms of fabric: drains at 5, 10, 15 (+latency)
    assert arrivals == pytest.approx([5.36, 10.36, 15.36])


def test_no_cap_means_no_queueing():
    env, net, a, b, c = _world(az_link_bandwidth=None)
    arrivals = []
    served = inbox(net, b)

    def rx():
        while True:
            yield served.get()
            arrivals.append(env.now)

    env.process(rx())
    for _ in range(3):
        net.send(Message(src=a, dst=b, kind="x", size=10_000))
    env.run(until=10)
    assert arrivals == pytest.approx([0.36, 0.36, 0.36])
