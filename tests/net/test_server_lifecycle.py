"""The `Server` lifecycle contract, once, for every daemon class.

Across any crash/restart sequence a mailbox has exactly one consumer and
each named background loop runs exactly once; mail sent to a down server
is lost for good; `start()` / `restart()` on a running server do nothing.
"""

import pathlib
import re

import pytest

import repro
from repro.cephfs.kclient import CephClient
from repro.cephfs.mds import Mds
from repro.cephfs.osd import Osd
from repro.experiments.setups import CHAOS, SETUPS
from repro.hopsfs.datanode import BlockStoreDatanode
from repro.hopsfs.namenode import Namenode
from repro.ndb.datanode import NdbDatanode
from repro.ndb.management import ManagementNode
from repro.net import Message
from repro.net.server import Server
from repro.sim import Environment
from repro.types import NodeAddress, NodeKind

# class -> (setup, where the harness keeps its instances)
CASES = {
    NdbDatanode: ("HopsFS-CL (3,3)", lambda h: list(h.deployment.ndb.datanodes.values())),
    ManagementNode: ("HopsFS-CL (3,3)", lambda h: h.deployment.ndb.mgmt_nodes),
    Namenode: ("HopsFS-CL (3,3)", lambda h: h.deployment.namenodes),
    BlockStoreDatanode: ("HopsFS-CL (3,3)", lambda h: h.deployment.block_datanodes),
    Mds: ("CephFS", lambda h: h.cluster.mds_list),
    Osd: ("CephFS", lambda h: h.cluster.osds),
    CephClient: ("CephFS", lambda h: h.make_clients(1)),
}
# Outages: one shorter than any loop period under CHAOS (the shortest is the
# 5 ms MDS journal flush), one a few periods long, one the chaos scenarios' own.
OUTAGES_MS = (0.5, 40.0, 160.0)


@pytest.fixture
def spawned(monkeypatch):
    """Every process any environment starts, in order."""
    procs = []
    process = Environment.process

    def recording(env, generator, name=""):
        procs.append(process(env, generator, name=name))
        return procs[-1]

    monkeypatch.setattr(Environment, "process", recording)
    return procs


def _crash(harness, server):
    if server.addr in harness.managed_addrs():
        harness.crash(server.addr)
    else:  # a client host: nobody manages it, pull its plug directly
        server.shutdown()


def _recover(harness, server):
    if server.addr in harness.managed_addrs():
        harness.env.run_process(harness.recover(server.addr), until=harness.env.now + 60_000)
    else:
        server.restart()


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_lifecycle_contract(cls, spawned):
    setup, instances = CASES[cls]
    harness = SETUPS[setup].build(3, seed=3, tuning=CHAOS)
    env, network = harness.env, harness.network
    env.run_process(harness.ready(), until=60_000)
    server = instances(harness)[0]
    assert type(server) is cls and isinstance(server, Server) and server.running

    handled = []
    on_message = server._on_message

    def recording(msg):
        if msg.kind == "probe":
            handled.append(msg.payload)
        else:
            on_message(msg)

    server._on_message = recording
    prober = NodeAddress(NodeKind.CLIENT, 999_999)
    network.topology.add_host(prober, az=server.az)

    def probe(tag):
        network.send(Message(prober, server.addr, "probe", tag))

    # start() and restart() on a running server: no state change, no seq.
    seq = env._seq
    server.start()
    server.restart()
    assert env._seq == seq and server.running

    for cycle, outage_ms in enumerate(OUTAGES_MS):
        _crash(harness, server)
        assert not server.running and not network.is_up(server.addr)
        probe(f"lost-{cycle}")  # delivered into the outage: dropped
        env.run(until=env.now + outage_ms)
        _recover(harness, server)
        assert server.running and network.is_up(server.addr)
        probe(f"first-{cycle}")
        env.run(until=env.now + 20.0)
    env.run(until=env.now + 500.0)

    assert handled == ["first-0", "first-1", "first-2"]
    assert len(server.mailbox._getters) == 1
    assert "receive" in server._loops
    for name in server._loops:
        live = [p for p in spawned if p.name == f"{server.addr}:{name}" and p.is_alive]
        assert len(live) == 1, (name, len(live))


def test_the_one_receive_loop_stays_the_one_receive_loop():
    """Structure gate: servers get their mail and their guards from `Server`."""
    src = pathlib.Path(repro.__file__).parent
    guarded = {"ndb/cluster.py", "ndb/failure.py"}
    for path in src.rglob("*.py"):
        text, rel = path.read_text(), path.relative_to(src).as_posix()
        if re.search(r"^class \w+\((\w+, )*Server\)", text, re.M):
            guarded.add(rel)
        # `Network.set_down` empties a crashed host's mailbox: not a consumer.
        consumers = len(re.findall(r"mailbox\.get\(", text)) - (rel == "net/network.py")
        assert consumers == (rel == "net/server.py"), f"{rel}: mailbox consumer"
    assert len(guarded) == 9
    for rel in guarded:
        text = (src / rel).read_text()
        for banned in (".is_alive", "set_down(", "set_up("):
            assert banned not in text, f"{rel}: {banned} belongs to net/server.py"
