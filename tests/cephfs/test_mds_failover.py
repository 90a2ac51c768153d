"""MDS failover: a surviving rank adopts a dead rank's subtrees."""

import pytest

from repro.cephfs import CephConfig, build_cephfs
from repro.errors import NoNamenodeError


def run(cluster, generator, until=120_000):
    return cluster.env.run_process(generator, until=until)


def _cluster():
    return build_cephfs(
        num_mds=3,
        config=CephConfig(mds_failover_detect_ms=50.0),
    )


def test_failover_restores_subtree_service():
    ceph = _cluster()
    client = ceph.client()
    env = ceph.env

    def scenario():
        yield from client.mkdir("/top")
        yield from client.mkdir("/top/sub")
        yield from client.create("/top/sub/f")
        victim_rank = ceph.partitioner.rank_of("/top/sub/f")
        victim = ceph.mds_list[victim_rank % 3]
        victim.shutdown()
        # Before failover completes: the subtree is unavailable.
        with pytest.raises(NoNamenodeError):
            yield from client.stat("/top/sub/f")
        yield env.timeout(2000)  # detection + journal replay
        inode = yield from client.stat("/top/sub/f")
        return inode.path, ceph.failovers

    path, failovers = run(ceph, scenario())
    assert path == "/top/sub/f"
    assert failovers >= 1


def test_failover_picks_surviving_rank():
    ceph = _cluster()
    env = ceph.env

    def scenario():
        ceph.mds_list[1].shutdown()
        yield env.timeout(2000)
        target = ceph.partitioner.rank_overrides.get(1)
        return target

    target = run(ceph, scenario())
    assert target in (0, 2)
    assert ceph.mds_list[target].running


def test_override_chains_resolve():
    from repro.cephfs import SubtreePartitioner

    p = SubtreePartitioner(4, pinned=False)
    p.install_override(1, 2)
    p.install_override(2, 3)
    assert p._resolve_override(1) == 3
    # cycles terminate rather than loop forever
    p.install_override(3, 1)
    assert p._resolve_override(1) in (1, 2, 3)


def _reference_dir_rank(p, dir_path):
    """The directory's rank recomputed from the pin and override tables."""
    from repro.hashing import stable_hash

    comps = [c for c in dir_path.split("/") if c]
    if not comps:
        rank = 0
    else:
        key = "/" + "/".join(comps[:2])
        rank = p.pin_table.get(key) if p.pinned else None
        if rank is None:
            rank = stable_hash(key) % p.num_ranks
    seen = set()
    while rank in p.rank_overrides and rank not in seen:
        seen.add(rank)
        rank = p.rank_overrides[rank]
    return rank


def test_rank_memo_matches_uncached_reference():
    """``dir_rank`` and ``rank_of`` give the rank recomputed from the
    tables, across ``pin()`` and chained and cyclic overrides."""
    from repro.cephfs import SubtreePartitioner

    p = SubtreePartitioner(4, pinned=True)
    dirs = ["/", "/a", "/b", "/a/x", "/a/y", "/b/x", "/c/d/e", "/c/d/e/f", "/z/w"]

    def check():
        for _pass in range(2):  # the second pass is served from the memo
            for d in dirs:
                assert p.dir_rank(d) == _reference_dir_rank(p, d)
                assert p.rank_of(d + "/file") == _reference_dir_rank(p, d.rstrip("/") or "/")
                parent = d.rsplit("/", 1)[0] or "/"
                assert p.rank_of(d) == _reference_dir_rank(p, parent)

    check()
    p.pin(p.subtree_key_of_dir(d) for d in dirs)
    check()
    p.install_override(1, 2)
    check()
    p.install_override(2, 3)  # chained: 1 -> 2 -> 3
    check()
    p.install_override(3, 1)  # cyclic
    check()
    p.install_override(0, 2)  # the root's rank fails over too
    check()


def _dir_on_another_rank(ceph):
    """``(parent, child)``: a directory whose own subtree is served by a
    rank other than the one serving its entry in the parent."""
    partitioner = ceph.partitioner
    return next(
        (f"/p{i}", f"/p{i}/d{j}") for i in range(8) for j in range(8)
        if partitioner.dir_rank(f"/p{i}") != partitioner.dir_rank(f"/p{i}/d{j}")
    )


def test_preloaded_directory_is_mirrored_like_one_made_at_run_time():
    ceph = build_cephfs(num_mds=2)
    parent, child = _dir_on_another_rank(ceph)
    ceph.preload([(parent, True), (child, True)])
    entry_rank = ceph.mds_list[ceph.partitioner.rank_of(child)]
    owner = ceph.mds_for_dir(child)
    assert owner.shard.inodes[child] is entry_rank.shard.inodes[child]
    assert parent not in owner.shard.children  # no entry in a listing it does not serve


def test_failover_does_not_bring_back_a_deleted_preloaded_directory():
    ceph = build_cephfs(num_mds=2, config=CephConfig(mds_failover_detect_ms=50.0))
    parent, child = _dir_on_another_rank(ceph)
    ceph.preload([(parent, True), (child, True)])
    client = ceph.client()
    owner = ceph.mds_for_dir(child)

    def scenario():
        yield from client.delete(child)
        owner.shutdown()  # the parent's rank adopts what it held
        yield ceph.env.timeout(2000)
        listing = yield from client.listdir(parent)
        return listing

    assert run(ceph, scenario()) == []
