"""Per-pair route records against the unresolved path.

``Network`` resolves latency and AZ pair once per ``(src, dst)`` and
counts what it delivers on that route; each read of ``Network.traffic``
sums the routes into a new ``TrafficMatrix``.  ``_Reference`` is the path
it replaced: every message asks the topology and the fault state again and
records into a ``TrafficMatrix``.  A scripted sequence of sends and faults
must give byte-for-byte the same deliveries, and the same matrix — values
and key order — whenever it is read.
"""

import random

import pytest

from repro.net import Message, Network, TrafficMatrix, build_us_west1
from repro.sim import Environment
from repro.types import NodeAddress, NodeKind

from .conftest import inbox


def _addr(index):
    return NodeAddress(NodeKind.CLIENT, index)


class _Reference:
    """The network's delivery rules, re-derived per message from public API."""

    def __init__(self, topology, bandwidth):
        self.topology = topology
        self.bandwidth = bandwidth
        self.down = set()
        self.partitions = []
        self.degraded = {}
        self.drain_at = 0.0
        self.last = {}  # (src, dst) -> latest arrival: per-route FIFO
        self.traffic = TrafficMatrix()
        self.dropped = 0

    def send(self, now, src, dst, size):
        """Delivery time, or None when the sender is down.  Never before
        the last delivery time on the same (src, dst) route."""
        if src in self.down:
            self.dropped += 1
            return None
        topo = self.topology
        delay = topo.latency(src, dst)
        extra = self.degraded.get((topo.az_of(src), topo.az_of(dst)))
        if extra:
            delay += extra
        link = 0.0
        if self.bandwidth is not None and topo.az_of(src) != topo.az_of(dst):
            start = max(now, self.drain_at)
            self.drain_at = start + size / self.bandwidth
            link = self.drain_at - now
        due = max(now + (delay + link), self.last.get((src, dst), 0.0))
        self.last[(src, dst)] = due
        return due

    def deliver(self, src, dst, size):
        topo = self.topology
        src_az, dst_az = topo.az_of(src), topo.az_of(dst)
        cut = any(
            (src_az in a and dst_az in b) or (src_az in b and dst_az in a)
            for a, b in self.partitions
        )
        if src in self.down or dst in self.down or cut:
            self.dropped += 1
            return False
        self.traffic.record(src, src_az, dst, dst_az, size)
        return True


# Instants at which both runs read their traffic mid-script (whole
# milliseconds, like the faults, so no delivery ties with a read).
_READS = (10.0, 25.0, 50.0)


def _frozen(traffic):
    """A traffic matrix as plain data, key order included."""
    return (traffic.messages, list(traffic.az_pair_bytes.items()),
            [(addr, t.sent, t.received) for addr, t in traffic.node.items()])


def _script():
    """(time, action, args...) steps; faults sit on whole milliseconds and
    sends off them, so no delivery can tie with a fault."""
    rng = random.Random(3)
    hosts = [_addr(i) for i in range(1, 7)]
    steps = []
    for k in range(240):
        src, dst = rng.sample(hosts if k >= 120 else hosts[:5], 2)
        steps.append((0.25 + k * 0.25 + rng.random() * 0.2, "send", src, dst,
                      rng.choice((64, 256, 4096))))
    steps += [
        (5.0, "down", hosts[1]),
        (9.0, "up", hosts[1]),
        (12.0, "partition", (1,), (2, 3)),
        (18.0, "heal",),
        (22.0, "degrade", 1, 2, 5.0),
        (29.0, "add_host", hosts[5], 3, None),  # elastic scale-out at runtime
        (30.0, "add_host", _addr(7), 1, hosts[0]),  # colocated on hosts[0]'s VM
        (31.0, "send", _addr(7), hosts[0], 256),
        (31.5, "send", hosts[0], _addr(7), 256),
        (40.0, "restore",),
        (45.0, "down", hosts[2]),
        (47.0, "degrade", 2, 3, 0.5),
        (52.0, "up", hosts[2]),
        (55.0, "restore",),
    ]
    return sorted(steps, key=lambda step: step[0]), hosts


def _build(bandwidth):
    env = Environment()
    topo = build_us_west1()
    net = Network(env, topo, az_link_bandwidth_bytes_per_ms=bandwidth)
    return env, topo, net


def _run_network(bandwidth):
    env, topo, net = _build(bandwidth)
    steps, hosts = _script()
    arrivals = []

    def receiver(addr):
        served = inbox(net, addr)
        while True:
            message = yield served.get()
            arrivals.append((env.now, message.payload))

    def join(addr, az, colocated_with=None):
        topo.add_host(addr, az=az, colocated_with=colocated_with)
        env.process(receiver(addr))

    for index, addr in enumerate(hosts[:5]):
        join(addr, az=1 + index % 3)

    def driver():
        for ident, (when, action, *args) in enumerate(steps):
            yield env.timeout(when - env.now)
            if action == "send":
                src, dst, size = args
                net.send(Message(src=src, dst=dst, kind="x", payload=ident, size=size))
            elif action == "down":
                net.set_down(*args)
            elif action == "up":
                net.set_up(*args)
            elif action == "partition":
                net.partition_azs(*args)
            elif action == "heal":
                net.heal_partitions()
            elif action == "degrade":
                net.degrade_link(*args)
            elif action == "restore":
                net.restore_links()
            elif action == "add_host":
                join(*args)

    reads, held = [], []

    def reader():
        for when in _READS:
            yield env.timeout(when - env.now)
            traffic = net.traffic
            assert type(traffic) is TrafficMatrix
            reads.append(_frozen(traffic))
            held.append(traffic)

    env.process(driver())
    env.process(reader())
    env.run(until=200.0)
    # Each read is a value: the deliveries after it left it as it was.
    assert [_frozen(traffic) for traffic in held] == reads
    return arrivals, net.traffic, net.dropped_messages, reads


def _run_reference(bandwidth):
    _env, topo, _net = _build(bandwidth)
    steps, hosts = _script()
    for index, addr in enumerate(hosts[:5]):
        topo.add_host(addr, az=1 + index % 3)
    ref = _Reference(topo, bandwidth)
    # (time, order, ...) — script steps and the deliveries they cause, merged.
    agenda = [(when, ident, action, args) for ident, (when, action, *args) in enumerate(steps)]
    agenda += [(when, -1, "read", ()) for when in _READS]
    arrivals, reads = [], []
    while agenda:
        agenda.sort()
        when, ident, action, args = agenda.pop(0)
        if action == "send":
            src, dst, size = args
            due = ref.send(when, src, dst, size)
            if due is not None:
                agenda.append((due, ident, "deliver", (src, dst, size)))
        elif action == "deliver":
            if ref.deliver(*args):
                arrivals.append((when, ident))
        elif action == "read":
            reads.append(_frozen(ref.traffic))
        elif action == "down":
            ref.down.add(*args)
        elif action == "up":
            ref.down.discard(*args)
        elif action == "partition":
            ref.partitions.append((frozenset(args[0]), frozenset(args[1])))
        elif action == "heal":
            ref.partitions.clear()
        elif action == "degrade":
            az_a, az_b, extra = args
            ref.degraded[(az_a, az_b)] = ref.degraded[(az_b, az_a)] = extra
        elif action == "restore":
            ref.degraded.clear()
        elif action == "add_host":
            addr, az, colocated_with = args
            topo.add_host(addr, az=az, colocated_with=colocated_with)
    return arrivals, ref.traffic, ref.dropped, reads


@pytest.mark.parametrize("bandwidth", [None, 2000.0])
def test_routes_match_the_unresolved_path(bandwidth):
    arrivals, traffic, dropped, reads = _run_network(bandwidth)
    want_arrivals, want_traffic, want_dropped, want_reads = _run_reference(bandwidth)
    assert len(arrivals) > 150 and want_dropped > 10
    assert arrivals == want_arrivals  # same messages, same float instants
    assert dropped == want_dropped
    assert traffic == want_traffic
    # ... and the counters came into being in the same order, read at the
    # end and mid-run alike.
    assert _frozen(traffic) == _frozen(want_traffic)
    assert len(reads) == len(_READS) and reads == want_reads
    assert 0 < reads[0][0] < reads[1][0] < reads[2][0] < traffic.messages


def test_sender_down_leaves_no_traffic_entry():
    env, topo, net = _build(None)
    a, b = _addr(1), _addr(2)
    for addr in (a, b):
        topo.add_host(addr, az=1)
    inbox(net, b)
    net.set_down(b)
    net.send(Message(src=a, dst=b, kind="x"))  # resolved, then dropped on delivery
    env.run()
    assert net.dropped_messages == 1
    assert net.traffic == TrafficMatrix()
