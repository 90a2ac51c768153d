"""Tests for message delivery, RPC, failures and partitions."""

import pytest

from repro.errors import HostUnreachableError
from repro.net import Message, Network, build_us_west1
from repro.sim import Environment
from repro.types import NodeAddress, NodeKind

from .conftest import inbox


@pytest.fixture
def net():
    env = Environment()
    topo = build_us_west1()
    network = Network(env, topo)
    hosts = {}
    for i, az in enumerate((1, 2, 3), start=1):
        addr = NodeAddress(NodeKind.NDB_DATANODE, i)
        topo.add_host(addr, az=az)
        hosts[i] = addr
    # Only hosts[2] serves: hosts[1] and hosts[3] send and take replies.
    return env, network, hosts, inbox(network, hosts[2])


def test_send_delivers_with_az_latency(net):
    env, network, hosts, served = net
    received = []

    def receiver():
        msg = yield served.get()
        received.append((env.now, msg.payload))

    env.process(receiver())
    network.send(Message(src=hosts[1], dst=hosts[2], kind="ping", payload="x"))
    env.run()
    # AZ1 -> AZ2 is us-west1-a -> us-west1-b = 0.360ms
    assert received == [(0.360, "x")]


def test_intra_az_faster_than_cross_az(net):
    env, network, hosts, served = net
    topo = network.topology
    same_az = NodeAddress(NodeKind.NAMENODE, 1)
    topo.add_host(same_az, az=1)
    t_same = topo.latency(hosts[1], same_az)
    t_cross = topo.latency(hosts[1], hosts[2])
    assert t_same < t_cross


def test_rpc_roundtrip(net):
    env, network, hosts, served = net

    def server():
        while True:
            msg = yield served.get()
            network.reply(msg, payload=msg.payload * 2)

    def client():
        result = yield network.call(hosts[1], hosts[2], "double", payload=21)
        return (env.now, result)

    env.process(server())
    when, result = env.run_process(client())
    assert result == 42
    assert when == pytest.approx(0.720)  # two AZ1<->AZ2 hops


def test_rpc_remote_error_propagates(net):
    env, network, hosts, served = net

    def server():
        msg = yield served.get()
        network.reply(msg, payload=ValueError("bad request"), ok=False)

    def client():
        with pytest.raises(ValueError, match="bad request"):
            yield network.call(hosts[1], hosts[2], "op")
        return "handled"

    env.process(server())
    assert env.run_process(client()) == "handled"


def test_rpc_to_down_host_fails(net):
    env, network, hosts, served = net
    network.set_down(hosts[2])

    def client():
        with pytest.raises(HostUnreachableError):
            yield network.call(hosts[1], hosts[2], "op")
        return env.now

    # Failure is detected at delivery time (one latency later).
    assert env.run_process(client()) == pytest.approx(0.360)


def test_host_death_fails_inflight_rpc(net):
    env, network, hosts, served = net

    def server():
        yield served.get()
        # never replies; dies while client waits

    def killer():
        yield env.timeout(1.0)
        network.set_down(hosts[2])

    def client():
        with pytest.raises(HostUnreachableError):
            yield network.call(hosts[1], hosts[2], "op")
        return env.now

    env.process(server())
    env.process(killer())
    assert env.run_process(client()) == 1.0


def test_partition_blocks_messages_and_fails_rpcs(net):
    env, network, hosts, served = net

    def client():
        with pytest.raises(HostUnreachableError):
            yield network.call(hosts[2], hosts[3], "op")
        return "cut"

    network.partition_azs({2}, {3})
    assert not network.reachable(hosts[2], hosts[3])
    assert network.reachable(hosts[1], hosts[2])  # AZ1 still talks to AZ2
    assert env.run_process(client()) == "cut"


def test_partition_heal_restores_connectivity(net):
    env, network, hosts, served = net
    network.partition_azs({2}, {3})
    network.heal_partitions()
    assert network.reachable(hosts[2], hosts[3])


def test_traffic_accounting_by_az_pair(net):
    env, network, hosts, served = net

    def server():
        while True:
            msg = yield served.get()
            network.reply(msg, payload=None, size=1000)

    def client():
        yield network.call(hosts[1], hosts[2], "op", size=500)

    env.process(server())
    env.run_process(client())
    traffic = network.traffic
    assert traffic.az_pair_bytes[(1, 2)] == 500
    assert traffic.az_pair_bytes[(2, 1)] == 1000
    assert traffic.cross_az_bytes == 1500
    assert traffic.intra_az_bytes == 0
    assert traffic.node[hosts[1]].sent == 500
    assert traffic.node[hosts[1]].received == 1000


def test_traffic_snapshot_delta(net):
    env, network, hosts, served = net

    def exchange():
        yield env.timeout(0)
        network.send(Message(src=hosts[1], dst=hosts[2], kind="a", size=100))
        yield env.timeout(1)

    env.run_process(exchange())
    snap = network.traffic

    def second():
        network.send(Message(src=hosts[1], dst=hosts[2], kind="b", size=250))
        yield env.timeout(1)

    env.run_process(second())
    delta = network.traffic.delta_since(snap)
    assert delta.total_bytes == 250
    assert delta.messages == 1
    # A read is a value: the later delivery left the window's start as it was.
    assert (snap.total_bytes, snap.messages) == (100, 1)


def test_messages_from_down_host_are_dropped(net):
    env, network, hosts, served = net
    network.set_down(hosts[1])
    network.send(Message(src=hosts[1], dst=hosts[2], kind="x"))
    env.run()
    assert network.dropped_messages == 1
    assert network.traffic.total_bytes == 0


def test_recovered_host_receives_again(net):
    env, network, hosts, served = net
    network.set_down(hosts[2])
    network.set_up(hosts[2])
    got = []

    def receiver():
        msg = yield served.get()
        got.append(msg.kind)

    env.process(receiver())
    network.send(Message(src=hosts[1], dst=hosts[2], kind="hello"))
    env.run()
    assert got == ["hello"]


def test_delivery_stays_fifo_per_route_after_restore_links(net):
    """A message sent just after ``restore_links`` waits for the one sent on
    its route under the degradation; another route is not held back."""
    env, network, hosts, served = net
    got = []

    def receiver():
        while True:
            msg = yield served.get()
            got.append((env.now, msg.payload))

    def sender():
        network.degrade_link(1, 2, 10.0)
        network.send(Message(src=hosts[1], dst=hosts[2], kind="x", payload="slow"))
        yield env.timeout(0.5)
        network.restore_links()
        network.send(Message(src=hosts[1], dst=hosts[2], kind="x", payload="after"))
        network.send(Message(src=hosts[3], dst=hosts[2], kind="x", payload="other"))

    env.process(receiver())
    env.process(sender())
    env.run()
    assert [payload for _when, payload in got] == ["other", "slow", "after"]
    assert got[1][0] == got[2][0] == pytest.approx(10.360)


def test_one_way_message_dropped_on_delivery_reports_to_its_kind(net):
    env, network, hosts, served = net
    lost = []
    network.on_lost["feed"] = lost.append
    network.set_down(hosts[3])
    network.send(Message(src=hosts[1], dst=hosts[3], kind="feed", payload="down"))
    network.send(Message(src=hosts[1], dst=hosts[3], kind="other", payload="no callback"))
    # hosts[1] registered no handler.
    network.send(Message(src=hosts[2], dst=hosts[1], kind="feed", payload="no handler"))
    env.run()
    network.partition_azs({1}, {2})
    network.send(Message(src=hosts[1], dst=hosts[2], kind="feed", payload="cut"))
    env.run()
    assert [msg.payload for msg in lost] == ["no handler", "down", "cut"]
    assert network.dropped_messages == 4


def test_lost_callback_ignores_rpcs_and_sends_from_a_down_host(net):
    env, network, hosts, served = net
    lost = []
    network.on_lost["feed"] = lost.append

    def client():
        with pytest.raises(HostUnreachableError):
            yield network.call(hosts[1], hosts[3], "feed")

    network.set_down(hosts[3])
    env.run_process(client())
    network.set_down(hosts[1])
    network.send(Message(src=hosts[1], dst=hosts[2], kind="feed"))
    env.run()
    assert lost == []
