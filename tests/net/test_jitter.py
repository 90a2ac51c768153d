"""Network jitter option."""

import random

from repro.net import Message, Network, build_us_west1
from repro.sim import Environment
from repro.types import NodeAddress, NodeKind

from .conftest import inbox


def _setup(jitter):
    env = Environment()
    topo = build_us_west1()
    net = Network(env, topo, jitter_frac=jitter, rng=random.Random(5))
    a, b = NodeAddress(NodeKind.CLIENT, 1), NodeAddress(NodeKind.CLIENT, 2)
    topo.add_host(a, az=1)
    topo.add_host(b, az=2)
    return env, net, a, b


def _arrival_times(env, net, a, b, count):
    times = []
    served = inbox(net, b)

    def rx():
        for _ in range(count):
            yield served.get()
            times.append(env.now)

    proc = env.process(rx())

    def tx():
        for _ in range(count):
            net.send(Message(src=a, dst=b, kind="x"))
            yield env.timeout(10)

    env.process(tx())
    env.run()
    return [t % 10 for t in times]


def test_no_jitter_is_deterministic():
    env, net, a, b = _setup(0.0)
    latencies = _arrival_times(env, net, a, b, 5)
    assert len(set(round(l, 9) for l in latencies)) == 1


def test_jitter_varies_latency_within_bounds():
    env, net, a, b = _setup(0.2)
    latencies = _arrival_times(env, net, a, b, 10)
    base = 0.360  # AZ1 -> AZ2
    assert len(set(round(l, 6) for l in latencies)) > 1
    for latency in latencies:
        assert base * 0.8 <= latency <= base * 1.2
