"""The `Server` lifecycle contract, once, for every daemon class.

Across any crash/restart sequence an address has exactly one handler and
each named background loop runs once per life (a crash closes it, the
restart starts it afresh; a closed loop counts as ended even while its
last wake-up is still queued); mail sent to a down server is
dropped, counted and fails its RPC; the first mail after a restart is
handled once; `start()` / `restart()` on a running server do nothing.  A
server that was built but never started has no handler: its mail is
dropped the same way.
"""

import pathlib
import re

import pytest

import repro
from repro.cephfs.kclient import CephClient
from repro.cephfs.mds import Mds
from repro.cephfs.osd import Osd
from repro.errors import HostUnreachableError
from repro.experiments.setups import CHAOS, SETUPS
from repro.hopsfs.datanode import BlockStoreDatanode
from repro.hopsfs.namenode import Namenode
from repro.ndb.datanode import NdbDatanode
from repro.ndb.management import ManagementNode
from repro.net import Network, build_us_west1
from repro.net.server import Server
from repro.sim import Environment
from repro.sim.kernel import _CLOSED
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
    handlers = network._handlers
    on_message = server._on_message
    assert handlers[server.addr] == on_message
    addresses = set(handlers)

    handled = []

    def recording(msg):
        if msg.kind == "probe":
            handled.append(msg.payload)
        else:
            on_message(msg)

    # What the next start() registers; the running server keeps its handler.
    server._on_message = recording
    prober = NodeAddress(NodeKind.CLIENT, 999_999)
    network.topology.add_host(prober, az=server.az)

    def probe(tag):
        done = network.call(prober, server.addr, "probe", tag)
        done.defuse()  # nobody replies to a probe; a crash fails it
        return done

    # start() and restart() on a running server: no state change, no seq.
    seq = env._seq
    server.start()
    server.restart()
    assert env._seq == seq and server.running
    assert handlers[server.addr] == on_message

    for cycle, outage_ms in enumerate(OUTAGES_MS):
        _crash(harness, server)
        assert not server.running and not network.is_up(server.addr)
        dropped = network.dropped_messages
        lost = probe(f"lost-{cycle}")  # delivered into the outage: dropped
        env.run(until=env.now + outage_ms)
        assert network.dropped_messages > dropped
        assert not lost.ok and isinstance(lost.value, HostUnreachableError)
        _recover(harness, server)
        assert server.running and network.is_up(server.addr)
        assert handlers[server.addr] is recording and set(handlers) == addresses
        probe(f"first-{cycle}")
        env.run(until=env.now + 20.0)
    env.run(until=env.now + 500.0)

    assert handled == ["first-0", "first-1", "first-2"]
    assert "receive" not in server._loops
    for name, loop in server._loops.items():
        same = [p for p in spawned if p.name == f"{server.addr}:{name}"]
        running = [p for p in same if p.is_alive and p._generator is not _CLOSED]
        assert running == [loop] and same[-1] is loop, (name, len(running))


class _Echo(Server):
    def _on_message(self, msg):
        self.network.reply(msg, msg.payload)


def test_a_server_built_but_not_started_drops_its_mail():
    env = Environment()
    network = Network(env, build_us_west1())
    caller, addr = NodeAddress(NodeKind.CLIENT, 1), NodeAddress(NodeKind.NAMENODE, 1)
    network.topology.add_host(caller, az=1)
    network.topology.add_host(addr, az=2)
    server = _Echo(env, network, addr, az=2)

    def scenario():
        with pytest.raises(HostUnreachableError):
            yield network.call(caller, addr, "echo", "early")
        assert network.dropped_messages == 1
        server.start()
        return (yield network.call(caller, addr, "echo", "after start"))

    assert env.run_process(scenario()) == "after start"
    assert network.dropped_messages == 1


def test_delivery_is_one_call_with_no_consumer_loop():
    """Structure gate: servers get their mail and their guards from `Server`."""
    src = pathlib.Path(repro.__file__).parent
    server_text = (src / "net" / "server.py").read_text()
    assert "Store" not in server_text
    assert not re.search(r"yield [^\n]*\.get\(", server_text), "net/server.py: a consumer loop"
    assert not hasattr(Server, "_receive")
    guarded = {"ndb/cluster.py", "ndb/failure.py"}
    for path in src.rglob("*.py"):
        text, rel = path.read_text(), path.relative_to(src).as_posix()
        if re.search(r"^class \w+\((\w+, )*Server\)", text, re.M):
            guarded.add(rel)
        assert "mailbox" not in text, rel
        registers = len(re.findall(r"\.register\(", text))
        assert registers == (rel == "net/server.py"), f"{rel}: handlers belong to Server.start"
    assert len(guarded) == 9
    for rel in guarded:
        text = (src / rel).read_text()
        for banned in (".is_alive", "set_down(", "set_up("):
            assert banned not in text, f"{rel}: {banned} belongs to net/server.py"
