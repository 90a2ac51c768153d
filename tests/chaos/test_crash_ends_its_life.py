"""A crash ends everything its life started, on every server kind.

One crash cell per server kind (namenode, NDB datanode, block datanode,
MDS, OSD).  At each ``shutdown`` the check records what the ending life
started: the request tasks in its table, its background loops and the
RPCs it has in flight.  When the cell is over, each of them must be
finished or closed, and each RPC gone from the network's pending table:
nothing of a dead life runs on, stays parked or is left for a reply to
resume.  No RPC may be pending for a caller that is down.  (These metadata
workloads barely load the block datanodes: their request tasks are held to
the same rule by the restart regressions of their own tests.)

The MDS and the OSD file no task: a request is a callback chain whose
stages run where a task would resume, on the new life too.  So the check
also watches every MDS / OSD stage run for a request of an ended life: it
may only end the chain (one ``end_task``), never send a message or queue
CPU or disk work.  The CephFS cell must run some.
"""

from collections import Counter
from dataclasses import dataclass

import pytest

from repro.cephfs.mds import Mds
from repro.cephfs.osd import Osd
from repro.chaos.scenarios import run_scenario
from repro.hopsfs.datanode import BlockStoreDatanode
from repro.hopsfs.groupcommit import _BatchCtx
from repro.hopsfs.namenode import Namenode
from repro.ndb.datanode import NdbDatanode
from repro.net.network import Message, Network
from repro.net.server import Server
from repro.sim.kernel import _CLOSED, Environment
from repro.sim.resources import CorePool, Disk

# (scenario, setup, clients) -> the server kinds the cell crashes
CELLS = {
    ("async-commit-crash", "HopsFS (2,1)", 16): {Namenode},
    ("az-outage-under-load", "hopsfs-cl-3-3", 16): {Namenode, NdbDatanode, BlockStoreDatanode},
    ("az-outage-under-load", "cephfs", 16): {Mds, Osd},
}


@dataclass
class _Life:
    server: Server
    tasks: list
    loops: list
    rpc_ids: list


def _ended(proc) -> bool:
    """Finished (its generator retired) or closed."""
    return proc._generator is None or proc._generator is _CLOSED


def _processes(work) -> list:
    """A loop's process, or a group-commit batch's member and flush processes."""
    if isinstance(work, _BatchCtx):
        return [proc for proc in (*work.procs, work.flush) if proc is not None]
    return [work]


# The callback-chain stages of a request, by server kind.
_STAGES = {Mds: ("_begin", "_run", "_revoked", "_granted"),
           Osd: ("_begin", "_paid", "_written")}
# What a stage may do for a request of an ended life: end the chain, once.
_ACTIONS = ((Environment, "end_task"), (Network, "send"), (CorePool, "call"),
            (Disk, "_transfer"))


def _watch_dead_stages(monkeypatch, dead: set) -> Counter:
    """Wrap the MDS and OSD stages: count those run for a request in
    ``dead`` (``ran``) and those of them that did anything but end the
    chain once (``acted``)."""
    tally = Counter()
    running = []  # the actions of each dead-life stage on the stack

    for cls, name in _ACTIONS:
        def action(*args, _real=getattr(cls, name), _name=name, **kwargs):
            if running:
                running[-1][_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cls, name, action)
    for cls, names in _STAGES.items():
        for name in names:
            def stage(self, first, *rest, _real=getattr(cls, name)):
                msg = first if isinstance(first, Message) else first[0]
                if msg not in dead:
                    return _real(self, first, *rest)
                running.append(Counter())
                try:
                    _real(self, first, *rest)
                finally:
                    actions = running.pop()
                tally["ran"] += 1
                tally["acted"] += actions != Counter(end_task=1)

            monkeypatch.setattr(cls, name, stage)
    return tally


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: f"{cell[0]}/{cell[1]}")
def test_every_crash_ends_its_lifes_tasks_loops_and_rpcs(cell, monkeypatch):
    lives = []
    dead = set()  # the requests of every ended life
    stages = _watch_dead_stages(monkeypatch, dead)
    shutdown = Server.shutdown

    def recording(server):
        if server.running:
            dead.update(server._requests)
            pending = server.network._pending
            lives.append(_Life(
                server,
                [task for task in getattr(server, "_requests", {}).values() if task is not None],
                [proc for work in server._loops.values() for proc in _processes(work)],
                [rpc_id for rpc_id, rpc in pending.items() if rpc.src == server.addr],
            ))
        shutdown(server)

    monkeypatch.setattr(Server, "shutdown", recording)
    scenario, setup, clients = cell
    result = run_scenario(scenario, setup=setup, clients=clients)
    assert result.all_green
    network = result.extra["harness"].network

    assert {type(life.server) for life in lives} >= CELLS[cell]
    assert sum(len(life.tasks) + len(life.loops) + len(life.rpc_ids) for life in lives) > 0
    for life in lives:
        name = str(life.server.addr)
        assert all(_ended(task) for task in life.tasks), name
        assert all(_ended(loop) for loop in life.loops), name
        assert not set(life.rpc_ids) & set(network._pending), name
    assert [rpc for rpc in network._pending.values() if not network.is_up(rpc.src)] == []
    if CELLS[cell] & set(_STAGES):
        assert stages["ran"] > 0
    assert stages["acted"] == 0
