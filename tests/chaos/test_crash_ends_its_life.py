"""A crash ends everything its life started, on every server kind.

One crash cell per server kind (namenode, NDB datanode, block datanode,
MDS, OSD).  At each ``shutdown`` the check records what the ending life
started: the request tasks in its table, its background loops and the
RPCs it has in flight.  When the cell is over, each of them must be
finished or closed, and each RPC gone from the network's pending table:
nothing of a dead life runs on, stays parked or is left for a reply to
resume.  No RPC may be pending for a caller that is down.  (These metadata
workloads barely load the OSDs and block datanodes: their request tasks
are held to the same rule by the restart regressions of their own tests.)
"""

from dataclasses import dataclass

import pytest

from repro.cephfs.mds import Mds
from repro.cephfs.osd import Osd
from repro.chaos.scenarios import run_scenario
from repro.hopsfs.datanode import BlockStoreDatanode
from repro.hopsfs.groupcommit import _BatchCtx
from repro.hopsfs.namenode import Namenode
from repro.ndb.datanode import NdbDatanode
from repro.net.server import Server
from repro.sim.kernel import _CLOSED

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


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: f"{cell[0]}/{cell[1]}")
def test_every_crash_ends_its_lifes_tasks_loops_and_rpcs(cell, monkeypatch):
    lives = []
    shutdown = Server.shutdown

    def recording(server):
        if server.running:
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
