"""Path handling and hierarchical (implicit) locking helpers.

HopsFS avoids database-level serialization by locking only the inode(s) an
operation mutates, reading everything else (ancestors, associated metadata)
at read-committed (Section II-A2).  These helpers implement path parsing
and the read-committed resolution walk used by every operation.
"""

from __future__ import annotations

from typing import Optional

from ..errors import FileNotFoundFsError, InvalidPathError, NotDirectoryError
from ..ndb.client import NdbTransaction
from .metadata import INODES_TABLE, ROOT_INODE_ID, InodeRow

__all__ = [
    "split_path",
    "normalize_path",
    "resolve_components",
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


def resolve_components(txn: NdbTransaction, components: list[str], cache=None):
    """Walk the inode chain at read-committed; yields from NDB reads.

    Directory components found in the NN's path-component ``cache`` are
    used without a database read (HopsFS's top-of-hierarchy caching);
    resolved directories are written back to the cache.

    Returns a list of rows, one per component, with ``None`` from the first
    missing component onward.  Raises :class:`NotDirectoryError` when an
    intermediate component is a file.
    """
    rows: list[Optional[InodeRow]] = []
    parent: Optional[InodeRow] = _ROOT_ROW
    for depth, name in enumerate(components):
        if parent is None:
            rows.append(None)
            continue
        if not parent.is_dir:
            raise NotDirectoryError(
                "/" + "/".join(components[:depth]) + " is not a directory"
            )
        row = cache.get(parent.id, name) if cache is not None else None
        if row is None:
            row = yield from txn.read(
                INODES_TABLE, (parent.id, name), partition_key=parent.id
            )
            if row is not None and row.is_dir and cache is not None:
                cache.put(row)
        rows.append(row)
        parent = row
    return rows


def resolve_inode(txn: NdbTransaction, path: str, cache=None):
    """Resolve ``path`` to its inode row; raises if any component missing."""
    components = split_path(path)
    if not components:
        return _ROOT_ROW
    rows = yield from resolve_components(txn, components, cache)
    if rows[-1] is None:
        missing = components[: rows.index(None) + 1]
        raise FileNotFoundFsError("/" + "/".join(missing) + " does not exist")
    return rows[-1]


def resolve_parent(txn: NdbTransaction, path: str, cache=None):
    """Resolve the parent directory of ``path``.

    Returns ``(parent_row, basename)``; raises if the parent chain is
    missing or crosses a file.
    """
    components = split_path(path)
    if not components:
        raise InvalidPathError("operation not allowed on the root directory")
    name = components[-1]
    if len(components) == 1:
        return _ROOT_ROW, name
    rows = yield from resolve_components(txn, components[:-1], cache)
    parent = rows[-1]
    if parent is None:
        missing = components[: rows.index(None) + 1]
        raise FileNotFoundFsError("/" + "/".join(missing) + " does not exist")
    if not parent.is_dir:
        raise NotDirectoryError("/" + "/".join(components[:-1]) + " is not a directory")
    return parent, name
