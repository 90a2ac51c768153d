"""``install_hopsfs`` walks directories then files once; what lands in NDB
and in the namenodes is what the per-path walk of earlier releases left.
``install_cephfs`` loads the MDS shards as path-by-path loads would."""

import pytest

from repro.cephfs.mds import MdsInode
from repro.experiments.setups import SETUPS
from repro.hopsfs.metadata import INODES_TABLE, InodeRow
from repro.workloads import generate_namespace, install_hopsfs

from ..ndb.conftest import store_state


def _install_path_by_path(deployment, namespace):
    """The earlier ``install_hopsfs``: one list of all paths, a set probe
    per path to tell files from directories, one store call per replica."""
    files = set(namespace.files)
    path_to_id = {"/": 1}
    dir_rows = []
    count = 0
    for path in namespace.top_dirs + namespace.dirs + namespace.files:
        parent_path, _slash, name = path.rpartition("/")
        parent_id = path_to_id[parent_path or "/"]
        is_dir = path not in files
        inode_id = deployment.ids.next_inode_id()
        path_to_id[path] = inode_id
        row = InodeRow(
            id=inode_id, parent_id=parent_id, name=name, is_dir=is_dir,
            small_data=None if is_dir else b"",
        )
        partition_map = deployment.ndb.partition_map
        for node in partition_map.replicas_for_key(parent_id).all:
            deployment.ndb.datanodes[node].store.load(
                INODES_TABLE, (parent_id, name), parent_id, row
            )
        count += 1
        if is_dir:
            dir_rows.append(row)
    for nn in deployment.namenodes:
        for row in dir_rows:
            nn.dir_cache.put(row)
    return count


def _installed(deployment):
    return (
        [store_state(dn.store) for dn in deployment.ndb.datanodes.values()],
        [list(nn.dir_cache.items()) for nn in deployment.namenodes],
        deployment.ids.next_inode_id(),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_install_assigns_the_ids_and_warms_the_caches_it_always_did(seed):
    namespace = generate_namespace(seed=seed)
    fields_before = set(vars(namespace))
    new = SETUPS["HopsFS-CL (3,3)"].build(6, seed=seed).deployment
    old = SETUPS["HopsFS-CL (3,3)"].build(6, seed=seed).deployment
    assert install_hopsfs(new, namespace) == namespace.size()
    assert _install_path_by_path(old, namespace) == namespace.size()
    assert _installed(new) == _installed(old)
    assert set(vars(namespace)) == fields_before  # nothing cached on the dataclass


def test_install_without_cache_warming_leaves_dir_caches_empty():
    namespace = generate_namespace(num_top_dirs=2, dirs_per_top=3, files_per_dir=2, seed=0)
    deployment = SETUPS["HopsFS-CL (3,3)"].build(2, seed=0).deployment
    assert install_hopsfs(deployment, namespace, warm_caches=False) == 20
    assert all(len(nn.dir_cache) == 0 for nn in deployment.namenodes)


def _preload_path_by_path(cluster, entries):
    """``CephCluster.preload`` one path at a time: a rank lookup, an inode
    and a listing entry per path, and each directory mirrored by the
    run-time ``mirror_dir``."""
    for path, is_dir in entries:
        mds = cluster.mds_list[cluster.partitioner.rank_of(path) % len(cluster.mds_list)]
        inode = MdsInode(id=next(mds._ids), path=path, is_dir=is_dir)
        mds.shard.inodes[path] = inode
        parent, name = path.rsplit("/", 1)
        mds.shard.children.setdefault(parent or "/", set()).add(name)
        if is_dir:
            cluster.mirror_dir(inode)
    return len(entries)


def _shards(cluster):
    """Each rank's inodes and listings with their dict and set orders, and
    the id it hands out next."""
    return [
        (
            list(mds.shard.inodes.items()),
            [(parent, list(names)) for parent, names in mds.shard.children.items()],
            next(mds._ids),
        )
        for mds in cluster.mds_list
    ]


@pytest.mark.parametrize("setup", ["CephFS", "CephFS - DirPinned"])
@pytest.mark.parametrize("seed", [0, 1])
def test_cephfs_install_loads_the_shards_as_path_by_path_loads_do(setup, seed):
    namespace = generate_namespace(seed=seed)
    new = SETUPS[setup].build(6, seed=seed)
    old = SETUPS[setup].build(6, seed=seed)
    assert new.install(namespace) == namespace.size()
    if old.spec.dir_pinning:
        partitioner = old.cluster.partitioner
        partitioner.pin(partitioner.subtree_key_of_dir(d) for d in namespace.dirs)
    entries = [(d, True) for d in namespace.top_dirs + namespace.dirs]
    entries += [(f, False) for f in namespace.files]
    assert _preload_path_by_path(old.cluster, entries) == namespace.size()
    assert _shards(new.cluster) == _shards(old.cluster)
