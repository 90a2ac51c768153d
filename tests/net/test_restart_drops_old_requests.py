"""A request of a dead life has no effect on the next one.

The MDS, the OSD and the block datanode each admit one request, crash
while it waits on the server's CPU or disk, and restart before that wait
ends.  The crash closed the request's task: when the wait ends on the new
life nothing is written (no inode, object or block) and no reply is sent.
The caller's RPC failed at the crash.
"""

from repro.cephfs import build_cephfs
from repro.cephfs.osd import Osd
from repro.errors import HostUnreachableError
from repro.hopsfs.datanode import BlockStoreDatanode, WriteBlockReq
from repro.net import Network, build_us_west1
from repro.sim import Environment
from repro.types import NodeAddress, NodeKind, OpType

_WAIT_MS = 20.0  # how long the request waits: the restart comes 2 ms in


def _crash_and_restart_under(server, kind, payload):
    """Send ``server`` one request, crash it 1 ms later and restart it 1 ms
    after that, then run past the request's wait.  Returns the caller's
    RPC and the kinds of the replies ``server`` sent meanwhile."""
    env, network = server.env, server.network
    prober = NodeAddress(NodeKind.CLIENT, 999_999)
    network.topology.add_host(prober, az=server.az)
    replies = []
    reply = network.reply

    def recording(request, *args, **kwargs):
        replies.append(request.kind)
        reply(request, *args, **kwargs)

    network.reply = recording
    done = network.call(prober, server.addr, kind, payload)
    done.defuse()
    env.run(until=env.now + 1.0)
    server.shutdown()
    env.run(until=env.now + 1.0)
    server.restart()
    env.run(until=env.now + _WAIT_MS + 20.0)
    assert isinstance(done.value, HostUnreachableError)
    return done, replies


def _standalone(cls, kind, **kwargs):
    env = Environment()
    network = Network(env, build_us_west1())
    addr = NodeAddress(kind, 1)
    network.topology.add_host(addr, az=1)
    server = cls(env, network, addr, 1, **kwargs)
    server.start()
    return server


def test_an_osd_write_admitted_before_a_restart_is_dropped():
    osd = _standalone(Osd, NodeKind.OSD, disk_bandwidth_bytes_per_ms=1_000.0, cpu_cost_ms=0.01)
    nbytes = int(_WAIT_MS * 1_000)
    _done, replies = _crash_and_restart_under(osd, "osd_write", ("obj", nbytes))
    assert osd.objects == {}
    assert replies == []
    assert not osd._requests


def test_a_block_write_admitted_before_a_restart_is_dropped():
    dn = _standalone(BlockStoreDatanode, NodeKind.DATANODE, namenode_addrs=[],
                     disk_bandwidth_bytes_per_ms=1_000.0)
    req = WriteBlockReq(block_id=7, nbytes=int(_WAIT_MS * 1_000), pipeline=(dn.addr,))
    _done, replies = _crash_and_restart_under(dn, "write_block", req)
    assert dn.blocks == {}
    assert replies == []
    assert not dn._requests


def test_an_mds_op_admitted_before_a_restart_is_dropped():
    ceph = build_cephfs(num_mds=1)
    mds = ceph.mds_list[0]
    mds.cpu.submit(_WAIT_MS)  # the MDS's one core is busy: the op queues
    served = mds.ops_served
    _done, replies = _crash_and_restart_under(
        mds, "mds_op", (OpType.MKDIR, {"path": "/z"}, NodeAddress(NodeKind.CLIENT, 999_999)))
    assert "/z" not in mds.shard.inodes
    assert mds.ops_served == served
    assert replies == []
    assert not mds._requests
