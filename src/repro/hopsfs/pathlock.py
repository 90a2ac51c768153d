"""Path handling and hierarchical (implicit) locking helpers.

HopsFS avoids database-level serialization by locking only the inode(s) an
operation mutates, reading everything else (ancestors, associated metadata)
at read-committed (Section II-A2).  These helpers implement path parsing
and the read-committed resolution walk used by every operation.
"""

from __future__ import annotations

from ..errors import FileNotFoundFsError, InvalidPathError, NotDirectoryError
from ..ndb.client import NdbTransaction
from .metadata import INODES_TABLE, ROOT_INODE_ID, InodeRow

__all__ = [
    "split_path",
    "normalize_path",
    "resolve_inode",
    "resolve_parent",
]


def split_path(path: str) -> list[str]:
    """Split an absolute path into components; '/' yields []."""
    if not isinstance(path, str) or not path.startswith("/"):
        raise InvalidPathError(f"path must be absolute: {path!r}")
    components = [c for c in path.split("/") if c]
    # Every op splits its path ~3 times.  Only a path containing "/." or a
    # NUL can hold an invalid component, so two C-level scans of the whole
    # string stand in for the per-component loop on all other paths.
    if "/." in path or "\x00" in path:
        for component in components:
            if component in (".", ".."):
                raise InvalidPathError(f"'.'/'..' not supported: {path!r}")
            if "\x00" in component:
                raise InvalidPathError(f"NUL byte in path component: {path!r}")
    return components


def normalize_path(path: str) -> str:
    return "/" + "/".join(split_path(path))


_ROOT_ROW = InodeRow(id=ROOT_INODE_ID, parent_id=0, name="", is_dir=True)


def root_row() -> InodeRow:
    return _ROOT_ROW


def _walk(txn: NdbTransaction, components: list[str], count: int, cache, as_parent: bool):
    """Resolve the first ``count`` components; the walk behind both resolvers.

    Directory components found in the NN's path-component ``cache`` are
    used without a database read (HopsFS's top-of-hierarchy caching);
    directories read are written back to it.  Raises at the first missing
    component, or at a file where a directory is needed.  Returns the last
    row, or ``(row, basename)`` with the row checked to be a directory when
    ``as_parent``.
    """
    row = _ROOT_ROW
    for depth in range(count):
        if not row.is_dir:
            raise NotDirectoryError(
                "/" + "/".join(components[:depth]) + " is not a directory"
            )
        parent_id = row.id
        name = components[depth]
        row = cache.lookup((parent_id, name))
        if row is None:
            row = yield from txn.read(INODES_TABLE, (parent_id, name), parent_id)
            if row is None:
                raise FileNotFoundFsError(
                    "/" + "/".join(components[: depth + 1]) + " does not exist"
                )
            if row.is_dir:
                cache.put(row)
    if not as_parent:
        return row
    if not row.is_dir:
        raise NotDirectoryError("/" + "/".join(components[:count]) + " is not a directory")
    return row, components[count]


# Plain functions returning the walk generator: an op parked on a
# resolution read has one frame for it, not two (DESIGN.md §4).
def resolve_inode(txn: NdbTransaction, path: str, cache):
    """Resolve ``path`` to its inode row; raises if any component missing."""
    components = split_path(path)
    return _walk(txn, components, len(components), cache, False)


def resolve_parent(txn: NdbTransaction, path: str, cache):
    """Resolve the parent directory of ``path``.

    Returns ``(parent_row, basename)``; raises if the parent chain is
    missing or crosses a file.
    """
    components = split_path(path)
    if not components:
        raise InvalidPathError("operation not allowed on the root directory")
    return _walk(txn, components, len(components) - 1, cache, True)
