"""Namespace *shape* snapshots, for checking against a reference model.

The path-combination matrix (``tests/hopsfs/test_path_matrix.py``) replays
the same seeded scripts on every combination of the opt-in serving paths
and asserts each final namespace equals the reference model's tree.
Equality is over the client-visible shape — paths and their attributes —
not over inode ids: the paths interleave handler execution differently,
so id *allocation order* is not part of the contract, while everything a
client can observe is.
"""

from __future__ import annotations

__all__ = ["namespace_snapshot"]

ROOT_ID = 1


def namespace_snapshot(fs) -> dict[str, tuple]:
    """Committed namespace shape: ``path -> (kind, size, perm, repl, data)``.

    Reads the committed rows (:meth:`HopsFsDeployment.committed_inodes`:
    one running member per node group; replica consistency is audited by
    the chaos invariant catalogue separately), rebuilds paths from parent
    links, and drops inode ids on purpose.  Rows whose parent chain does
    not reach the root are skipped — orphan detection belongs to the
    namespace-integrity invariant, not to the model comparison.
    """
    children: dict[int, list] = {}
    for row in fs.committed_inodes():
        children.setdefault(row.parent_id, []).append(row)

    snapshot: dict[str, tuple] = {}
    stack = [(ROOT_ID, "")]
    while stack:
        inode_id, prefix = stack.pop()
        for row in sorted(children.get(inode_id, ()), key=lambda r: r.name):
            path = f"{prefix}/{row.name}"
            snapshot[path] = (
                "dir" if row.is_dir else "file",
                row.size,
                row.permission,
                row.replication,
                row.under_construction,
                row.small_data,
            )
            if row.is_dir:
                stack.append((row.id, path))
    return snapshot
