"""Remaining network semantics: replies on non-RPCs, late replies, drops."""

import pytest

from repro.cephfs import build_cephfs
from repro.errors import HostUnreachableError, NetworkError
from repro.net import Message, Network, build_us_west1
from repro.sim import Environment
from repro.types import NodeAddress, NodeKind

from ..hopsfs.conftest import make_fs, run
from .conftest import inbox


def _world():
    env = Environment()
    topo = build_us_west1()
    net = Network(env, topo)
    a = NodeAddress(NodeKind.CLIENT, 1)
    b = NodeAddress(NodeKind.CLIENT, 2)
    topo.add_host(a, az=1)
    topo.add_host(b, az=2)
    return env, net, a, b


def test_reply_to_non_rpc_rejected():
    env, net, a, b = _world()
    plain = Message(src=a, dst=b, kind="oneway")
    with pytest.raises(NetworkError):
        net.reply(plain)


def test_duplicate_reply_ignored():
    """A second reply to the same rpc_id must not crash or re-trigger."""
    env, net, a, b = _world()
    served = inbox(net, b)

    def server():
        msg = yield served.get()
        net.reply(msg, payload="first")
        net.reply(msg, payload="second")  # dup: dropped at completion

    def client():
        result = yield net.call(a, b, "ask")
        yield env.timeout(5)  # let the duplicate land
        return result

    env.process(server())
    assert env.run_process(client()) == "first"


def test_message_to_unregistered_host_fails_rpc():
    env, net, a, b = _world()
    ghost = NodeAddress(NodeKind.CLIENT, 99)
    net.topology.add_host(ghost, az=3)  # host exists but registered no handler

    def client():
        with pytest.raises(Exception):
            yield net.call(a, ghost, "ask")
        return True

    assert env.run_process(client())
    assert net.dropped_messages == 1


def test_a_client_host_drops_requests_and_still_takes_replies():
    """A HopsFS client serves nothing: a request to it is dropped, counted
    and fails its RPC, while its own calls still get their replies."""
    fs = make_fs(num_namenodes=1)
    client, nn = fs.client(), fs.namenodes[0]
    network = fs.network

    def scenario():
        yield from fs.await_election()
        dropped = network.dropped_messages
        with pytest.raises(HostUnreachableError):
            yield network.call(nn.addr, client.addr, "probe")
        assert network.dropped_messages == dropped + 1
        yield from client.mkdir("/d")
        return (yield from client.exists("/d"))

    assert run(fs, scenario()) is True


def test_the_ceph_mon_drops_requests():
    ceph = build_cephfs(num_mds=1)
    network, mds = ceph.network, ceph.mds_list[0]
    mon = NodeAddress(NodeKind.MON, 1)

    def scenario():
        with pytest.raises(HostUnreachableError):
            yield network.call(mds.addr, mon, "probe")
        return network.dropped_messages

    assert ceph.env.run_process(scenario()) == 1


def test_send_sizes_accumulate_per_direction():
    env, net, a, b = _world()
    inbox(net, b)
    for size in (100, 200, 300):
        net.send(Message(src=a, dst=b, kind="x", size=size))
    env.run()
    assert net.traffic.node[a].sent == 600
    assert net.traffic.node[b].received == 600
    assert net.traffic.messages == 3


def test_partition_does_not_affect_same_side_traffic():
    env, net, a, b = _world()
    c = NodeAddress(NodeKind.CLIENT, 3)
    net.topology.add_host(c, az=1)
    served = inbox(net, c)
    inbox(net, b)
    net.partition_azs({1}, {2})
    got = []

    def receiver():
        msg = yield served.get()
        got.append(msg.kind)

    env.process(receiver())
    net.send(Message(src=a, dst=c, kind="local"))
    net.send(Message(src=a, dst=b, kind="cut"))
    env.run()
    assert got == ["local"]
    assert net.dropped_messages == 1
