"""A request of a dead life has no effect on the next one.

The MDS, the OSD and the block datanode each admit one request, crash
while it waits on the server's CPU or disk, and restart before that wait
ends.  The crash closed the block datanode's request task, and left the
MDS's and the OSD's request out of the new life's table: when the wait
ends on the new life nothing is written (no inode, object or block) and
no reply is sent.  The caller's RPC failed at the crash.

The MDS and the OSD serve a request as a callback chain: its later stages
still run on the new life, where a task's wake-up would, and must do
nothing but end the chain.  Two requests each, one in service and one
queued behind it, hold them to that.
"""

from repro.cephfs import CephConfig, build_cephfs
from repro.cephfs.osd import Osd
from repro.errors import HostUnreachableError
from repro.hopsfs.datanode import BlockStoreDatanode, WriteBlockReq
from repro.net import Network, build_us_west1
from repro.sim import Environment
from repro.types import NodeAddress, NodeKind, OpType

_WAIT_MS = 20.0  # how long the request waits: the restart comes 2 ms in


def _crash_and_restart_under(server, *requests):
    """Send ``server`` each ``(kind, payload)`` request, crash it 1 ms
    later and restart it 1 ms after that, then run past every request's
    wait.  Returns the kinds of the replies ``server`` sent meanwhile."""
    env, network = server.env, server.network
    prober = NodeAddress(NodeKind.CLIENT, 999_999)
    network.topology.add_host(prober, az=server.az)
    replies = []
    reply = network.reply

    def recording(request, *args, **kwargs):
        replies.append(request.kind)
        reply(request, *args, **kwargs)

    network.reply = recording
    calls = [network.call(prober, server.addr, kind, payload) for kind, payload in requests]
    for call in calls:
        call.defuse()
    env.run(until=env.now + 1.0)
    server.shutdown()
    env.run(until=env.now + 1.0)
    server.restart()
    env.run(until=env.now + len(requests) * _WAIT_MS + 20.0)
    assert all(isinstance(call.value, HostUnreachableError) for call in calls)
    return replies


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
    replies = _crash_and_restart_under(osd, ("osd_write", ("obj", nbytes)))
    assert osd.objects == {}
    assert replies == []
    assert not osd._requests


def test_a_block_write_admitted_before_a_restart_is_dropped():
    dn = _standalone(BlockStoreDatanode, NodeKind.DATANODE, namenode_addrs=[],
                     disk_bandwidth_bytes_per_ms=1_000.0)
    req = WriteBlockReq(block_id=7, nbytes=int(_WAIT_MS * 1_000), pipeline=(dn.addr,))
    replies = _crash_and_restart_under(dn, ("write_block", req))
    assert dn.blocks == {}
    assert replies == []
    assert not dn._requests


def test_an_mds_op_admitted_before_a_restart_is_dropped():
    ceph = build_cephfs(num_mds=1)
    mds = ceph.mds_list[0]
    mds.cpu.submit(_WAIT_MS)  # the MDS's one core is busy: the op queues
    served = mds.ops_served
    replies = _crash_and_restart_under(
        mds, ("mds_op", (OpType.MKDIR, {"path": "/z"}, NodeAddress(NodeKind.CLIENT, 999_999))))
    assert "/z" not in mds.shard.inodes
    assert mds.ops_served == served
    assert replies == []
    assert not mds._requests


def test_mds_ops_in_service_and_queued_at_a_crash_never_act():
    """A MKDIR holds the MDS core and a STAT waits behind it: neither the
    MKDIR's journal, revoke and reply nor the STAT's grant and reply run."""
    config = CephConfig(mds_op_cost_ms=_WAIT_MS, mds_mutation_cost_ms=_WAIT_MS)
    mds = build_cephfs(num_mds=1, config=config).mds_list[0]
    mds.load("/d", "/", "d", is_dir=True)
    client = NodeAddress(NodeKind.CLIENT, 999_999)
    before = (mds.ops_served, mds.cache_grants, mds.journal_flushes)
    replies = _crash_and_restart_under(
        mds,
        ("mds_op", (OpType.MKDIR, {"path": "/z"}, client)),
        ("mds_op", (OpType.STAT, {"path": "/d"}, client)),
    )
    assert replies == []
    assert (mds.ops_served, mds.cache_grants, mds.journal_flushes) == before
    assert mds.capabilities == {} and mds.journal_pending_bytes == 0
    assert "/z" not in mds.shard.inodes
    assert not mds._requests
    assert mds.cpu.jobs_done >= 2  # both jobs ran out on the new life


def test_osd_writes_on_the_disk_and_queued_behind_at_a_crash_never_act():
    osd = _standalone(Osd, NodeKind.OSD, disk_bandwidth_bytes_per_ms=1_000.0, cpu_cost_ms=0.01)
    nbytes = int(_WAIT_MS * 1_000)
    replies = _crash_and_restart_under(
        osd, ("osd_write", ("a", nbytes)), ("osd_write", ("b", nbytes)))
    assert osd.objects == {}
    assert replies == []
    assert not osd._requests
    assert osd.disk.bytes_written == 2 * nbytes  # both transfers ran out
