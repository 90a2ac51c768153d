"""Benchmark namespace generation and installation.

Builds a Hadoop-style directory tree (a few top-level project dirs, many
leaf dirs, many files) and installs it into a deployment *before*
measurements start — into NDB fragment stores for HopsFS and into the MDS
shards for CephFS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..hopsfs.metadata import INODES_TABLE, ROOT_INODE_ID, InodeRow

__all__ = ["Namespace", "generate_namespace", "install_hopsfs", "install_cephfs"]


@dataclass
class Namespace:
    """A generated namespace: directories, files, and popularity weights."""

    top_dirs: list[str]
    dirs: list[str]  # leaf directories (excluding top-level)
    files: list[str]
    # Zipf-ish popularity weights aligned with ``files`` (sum to ~1).
    file_weights: list[float] = field(default_factory=list)

    def size(self) -> int:
        return len(self.top_dirs) + len(self.dirs) + len(self.files)


def generate_namespace(
    num_top_dirs: int = 8,
    dirs_per_top: int = 64,
    files_per_dir: int = 32,
    zipf_s: float = 0.5,
    seed: int = 0,
) -> Namespace:
    """Generate the tree ``/projN/dirM/fileK``.

    File popularity follows a Zipf(s) law over a random permutation of the
    files — hot files dominate reads, as in real Hadoop traces.
    """
    rng = random.Random(seed)
    top_dirs = [f"/proj{i}" for i in range(num_top_dirs)]
    dirs, files = [], []
    for top in top_dirs:
        for j in range(dirs_per_top):
            d = f"{top}/dir{j}"
            dirs.append(d)
            for k in range(files_per_dir):
                files.append(f"{d}/file{k}")
    order = list(range(len(files)))
    rng.shuffle(order)
    raw = [0.0] * len(files)
    for rank, idx in enumerate(order, start=1):
        raw[idx] = 1.0 / (rank ** zipf_s)
    total = sum(raw)
    weights = [w / total for w in raw]
    return Namespace(top_dirs=top_dirs, dirs=dirs, files=files, file_weights=weights)


def install_hopsfs(deployment, namespace: Namespace, warm_caches: bool = True) -> int:
    """Preload the namespace into NDB, assigning inode ids like HopsFS would.

    ``warm_caches`` also installs the directory rows into every namenode's
    path-component cache: benchmarks measure steady state, where the
    read-mostly top of the hierarchy is long since cached (FAST'17).
    """
    inode_ids = deployment.ids.inode_ids()
    dir_ids: dict[str, int] = {"": ROOT_INODE_ID}
    rows = []
    new_row = tuple.__new__  # an InodeRow from all its fields, in order

    def add(paths, is_dir: bool) -> None:
        # Every field after (id, parent_id, name) is the same for the batch.
        rest = InodeRow(0, 0, "", is_dir, small_data=None if is_dir else b"")[3:]
        for path, inode_id in zip(paths, inode_ids):  # paths first: no id drawn past them
            parent_path, _slash, name = path.rpartition("/")
            parent_id = dir_ids[parent_path]
            if is_dir:
                dir_ids[path] = inode_id
            row = new_row(InodeRow, (inode_id, parent_id, name) + rest)
            rows.append(((parent_id, name), parent_id, row))

    add(namespace.top_dirs, True)
    add(namespace.dirs, True)
    num_dirs = len(rows)
    add(namespace.files, False)
    count = deployment.ndb.preload(INODES_TABLE, rows)
    if warm_caches:
        # DirCache.store of each directory row into a fresh, far-from-full
        # cache: the same entries in the same order, stamped now.
        now = deployment.env.now
        entries = [(pk, (now, row)) for pk, _parent_id, row in rows[:num_dirs]]
        for nn in deployment.namenodes:
            nn.dir_cache.update(entries)
    return count


def install_cephfs(cluster, namespace: Namespace) -> int:
    """Preload the namespace into the MDS shards."""
    entries = [(d, True) for d in namespace.top_dirs + namespace.dirs]
    entries += [(f, False) for f in namespace.files]
    return cluster.preload(entries)
