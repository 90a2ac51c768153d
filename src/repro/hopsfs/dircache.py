"""Namenode-side caches' storage, and the directory (path-component) cache.

HopsFS namenodes cache the inodes of directory path components (FAST'17):
the top of the hierarchy is read-mostly, and without the cache every
operation's path resolution would hammer the partition holding the root
directory's children.  Entries are directories only, expire after a TTL,
and are invalidated locally when this NN mutates the directory.  Staleness
across NNs is bounded by the TTL and is safe: every operation's target
correctness is still guarded by its row locks in NDB (a stale parent makes
the operation's locked read fail, and the client retries).
"""

from __future__ import annotations

from .metadata import InodeRow

__all__ = ["TtlLruMap", "DirCache", "WalkView"]


class TtlLruMap(dict):
    """A dict of ``key -> (stamp_ms, value)`` that knows its TTL and its cap.

    The one storage discipline of the dir cache and both listing-cache
    tiers: a lookup drops the entry it finds older than ``ttl_ms``, and a
    :meth:`store` at the cap evicts the oldest *insertion* — dict order, so
    the victim is deterministic, and never the whole cache (which caused a
    periodic miss storm on the root-component hot path).  :meth:`lookup`
    counts ``hits`` / ``misses`` as plain ints (the obs registry reads them
    through a gauge); :meth:`entry` does not.  ``len``, ``in``, ``pop``,
    ``clear`` and ``update`` (with prebuilt entries) are the dict's own.
    Entries are stamped with ``clock.now`` (the simulation environment, or
    anything else with a ``now``), read as an attribute: no call per lookup.
    """

    __slots__ = ("_clock", "ttl_ms", "max_entries", "hits", "misses")

    # The defaults are the dir cache's; the listing tiers pass their config's.
    def __init__(self, clock, ttl_ms: float = 5000.0, max_entries: int = 100_000):
        self._clock = clock
        self.ttl_ms = ttl_ms
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def lookup(self, key):
        entry = self.get(key)
        if entry is not None:
            if self._clock.now - entry[0] <= self.ttl_ms:
                self.hits += 1
                return entry[1]
            del self[key]
        self.misses += 1
        return None

    def entry(self, key):
        """The live ``(stamp, value)`` entry of ``key``, or None: :meth:`lookup`
        without the hit/miss counters (the listing cache's pre-pool probes of
        the dir cache would otherwise double-book every cacheable read
        against its hit rate), returning the entry itself, whose identity
        tells a probe whether the key was stored again since."""
        entry = self.get(key)
        if entry is not None and self._clock.now - entry[0] > self.ttl_ms:
            del self[key]
            return None
        return entry

    def store(self, key, value) -> None:
        if self.pop(key, None) is None and len(self) >= self.max_entries:
            del self[next(iter(self))]
        self[key] = (self._clock.now, value)

    def live(self, now: float) -> list:
        """``(key, value)`` of the entries a lookup at ``now`` would serve."""
        ttl = self.ttl_ms
        return [(key, value) for key, (stamp, value) in self.items() if now - stamp <= ttl]


class DirCache(TtlLruMap):
    """Maps ``(parent_id, name)`` to a directory's :class:`InodeRow`."""

    __slots__ = ()

    def put(self, row: InodeRow) -> None:
        if row.is_dir:
            self.store((row.parent_id, row.name), row)


class WalkView:
    """The dir cache as one walk sees it.

    ``lookup`` and ``put`` delegate to the cache.  ``ids`` keeps the id of
    every directory the walk passed (a hit, or a row read and put back);
    ``rows`` keeps the rows it read fresh (those it ``put``).
    """

    __slots__ = ("_cache", "ids", "rows")

    def __init__(self, cache):
        self._cache = cache
        self.ids = set()
        self.rows = []

    def lookup(self, key):
        row = self._cache.lookup(key)
        if row is not None:
            self.ids.add(row.id)
        return row

    def put(self, row: InodeRow) -> None:
        self._cache.put(row)
        self.ids.add(row.id)
        self.rows.append(row)
