"""``CephClient.op``: one body, one traced wrapper; the MDS: one chain.

The client's entry is a plain function that returns the body generator
when tracing is off and the wrapper around the same body when it is on;
the MDS serves a request as one callback chain either way.  So a traced
and an untraced run must agree on every result, counter and simulated
instant.
"""

import inspect

import pytest

from repro.cephfs import build_cephfs
from repro.errors import NoNamenodeError
from repro.fsclient import FsClient
from repro.obs import ObsContext
from repro.types import OpType


def _run(traced):
    """A miss, a hit, a mutation that evicts, a miss again, a dead MDS."""
    ceph = build_cephfs(num_mds=3)
    obs = ObsContext().attach(ceph.env) if traced else None
    client = ceph.client()
    env = ceph.env
    log = []

    def scenario():
        yield from client.mkdir("/d")
        yield from client.create("/d/f", data=b"abc")
        for op, kwargs in [
            (OpType.STAT, {"path": "/d/f"}),  # miss: fills the cache
            (OpType.STAT, {"path": "/d/f"}),  # hit: no MDS round trip
            (OpType.READ_FILE, {"path": "/d/f"}),  # hit (same inode key)
            (OpType.CHMOD, {"path": "/d/f", "permission": 0o600}),  # evicts
            (OpType.STAT, {"path": "/d/f"}),  # miss again
            (OpType.EXISTS, {"path": "/d/f"}),
            (OpType.LIST_DIR, {"path": "/d"}),
        ]:
            result = yield from client.op(op, **kwargs)
            log.append((op, result, client.cache_hits, client.cache_misses, env.now))
        for mds in ceph.mds_list:
            mds.shutdown()
        try:
            yield from client.op(OpType.STAT, path="/d/other")
        except NoNamenodeError as exc:
            log.append(("unreachable", type(exc).__name__, env.now))

    env.run_process(scenario(), until=60_000)
    return log, client, ceph, obs


def test_traced_and_untraced_ops_agree():
    plain, plain_client, plain_ceph, _ = _run(traced=False)
    traced, traced_client, traced_ceph, obs = _run(traced=True)
    assert plain == traced
    assert plain[-1][:2] == ("unreachable", "NoNamenodeError")
    assert (plain_client.cache_hits, plain_client.cache_misses) == (2, 2)
    assert sorted(plain_client.cache) == sorted(traced_client.cache)
    assert [m.ops_served for m in plain_ceph.mds_list] == [
        m.ops_served for m in traced_ceph.mds_list]
    assert plain_ceph.env._seq == traced_ceph.env._seq  # schedule-neutral
    # The wrappers recorded what they used to: one span per op, hits tagged.
    ops = [s for s in obs.tracer.spans if s.name == "kclient.op"]
    assert len(ops) == 2 + 7 + 1
    assert [s.tags["cache_hit"] for s in ops[2:9]] == [
        False, True, True, False, False, False, False]
    assert ops[-1].tags["ok"] is False and ops[-1].tags["error"] == "NoNamenodeError"
    handled = [s for s in obs.tracer.spans if s.name == "mds.handle"]
    assert len(handled) == sum(m.ops_served for m in traced_ceph.mds_list)


def test_untraced_stubs_return_the_body_generator():
    ceph = build_cephfs(num_mds=2)
    client = ceph.client()
    for stub in (client.op(OpType.STAT, path="/"), client.run(OpType.STAT, {"path": "/"})):
        assert inspect.isgenerator(stub) and stub.gi_code.co_name == "_op_body"
        stub.close()
    ObsContext().attach(ceph.env)
    op = client.op(OpType.STAT, path="/")
    assert op.gi_code.co_name == "_traced_op"
    op.close()


def test_ceph_stub_has_no_failure_count():
    """Drivers read every stub's ``last_op_failures``; a CephFS stub never
    fails over, keeps no count of its own and reads the base's 0."""
    client = build_cephfs(num_mds=1).client()
    assert "last_op_failures" not in vars(client)
    assert client.last_op_failures == FsClient.last_op_failures == 0


@pytest.mark.parametrize("op", [OpType.EXISTS, OpType.LIST_DIR])
def test_exists_and_listdir_still_evict_the_cached_inode(op):
    """Behaviour kept as found (ROADMAP item 3 records it): these two read
    ops are not served from the kernel cache and drop the path's entry."""
    ceph = build_cephfs(num_mds=2)
    client = ceph.client()

    def scenario():
        yield from client.mkdir("/d")
        yield from client.stat("/d")
        assert "/d" in client.cache
        yield from client.op(op, path="/d")
        return "/d" in client.cache

    assert ceph.env.run_process(scenario(), until=60_000) is False
