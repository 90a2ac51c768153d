"""Pre-materialized listing/attr cache served from NN memory (ROADMAP 3).

The Spotify mix is ~95% reads (``readFile``/``getFileInfo``/``listDir``/
``exists``), yet every one of them pays a full NDB transaction — at least
one partition-pruned read or scan plus the coordinator round trips.  This
module gives each namenode a Tiger-Cache-style pre-materialized cache:

* **attr entries** map ``(parent_id, name)`` to the committed
  :class:`~repro.hopsfs.metadata.InodeRow`, letting path resolution, stat,
  and small-file reads complete without touching NDB;
* **listing entries** map a directory's inode id to its sorted child-name
  tuple, serving ``list_dir`` — and *definitive absence* for ``exists`` —
  in O(1).

Entries are filled from the transactional read path (miss → NDB → fill)
and invalidated by the NDB changelog (``repro.ndb.changelog``): every
committed inode mutation fans out row images which pop the affected attr
and listing entries.  Three gates keep a stale entry from ever being
served after its invalidation applies:

* **epoch** — a TC-failure take-over that rolls a transaction forward
  cannot itemize the rows it committed; the bus bumps its epoch and the
  cache flushes wholesale.
* **sequence** — batches are globally sequence-stamped.  Invalidation
  pops are order-independent, so out-of-order delivery applies
  immediately; a *hole* that never fills (a batch dropped while this NN
  was down or partitioned) overflows the pending window and flushes.
* **fill tokens** — a fill begun before an invalidation of the same
  directory (or before a flush) is discarded, not applied, closing the
  read-then-invalidate-then-fill race.

Staleness across NNs is bounded by changelog delivery latency in the
common case and by ``TTL_MS`` in the worst case (dropped batches expire
out).  ``HopsFsConfig.listing_cache=None`` (the default) builds none of
this: no subscriptions, no messages, no events — the legacy path stays
bit-identical to the pinned golden schedules.  The cache has no knobs:
its bounds and hit cost are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import InvalidPathError
from ..ndb.schema import TOMBSTONE
from .dircache import TtlLruMap
from .metadata import INODES_TABLE, ROOT_INODE_ID, InodeRow
from .pathlock import root_row, split_path

__all__ = ["ListingCacheConfig", "ListingCache", "materialize_snapshot"]

# Worst-case staleness bound: entries older than this are never served
# (covers changelog batches dropped while this NN was unreachable).
TTL_MS = 100.0
# Caps of the two tiers (TtlLruMap: oldest insertion evicted).
MAX_ATTR_ENTRIES = 200_000
MAX_LISTING_ENTRIES = 50_000
# Handler-pool cost of a cache-served read, as a fraction of
# ``op_cost_read_ms``: a hash lookup instead of transaction setup,
# marshalling, and coordinator bookkeeping.
HIT_COST_FRAC = 0.25


@dataclass(frozen=True)
class ListingCacheConfig:
    """Turns the pre-materialized listing/attr cache on; it has no knobs."""


def materialize_snapshot(rows, now: float) -> tuple[dict, dict]:
    """The ``_attrs`` and ``_listings`` entries of a committed snapshot.

    ``rows`` is the deduplicated committed ``inodes`` content, read at
    simulated time ``now``.  Built once per deployment; every NN's
    :meth:`ListingCache.prewarm` takes the same entries by reference.
    """
    rows = [row for row in rows if row.id != ROOT_INODE_ID]
    dir_ids = {row.id for row in rows if row.is_dir} | {ROOT_INODE_ID}
    attrs = {}
    children: dict[int, list[str]] = {dir_id: [] for dir_id in dir_ids}
    for row in rows:
        attrs[(row.parent_id, row.name)] = (now, row)
        if row.parent_id in children:
            children[row.parent_id].append(row.name)
    listings = {}
    for dir_id, names in children.items():
        ordered = tuple(sorted(names))
        listings[dir_id] = (now, (ordered, frozenset(ordered)))
    return attrs, listings


class ListingCache:
    """Per-NN pre-materialized listing/attr cache with changelog invalidation."""

    # Out-of-order tolerance: how many sequence numbers may sit above a
    # delivery hole before the hole is declared a *lost* batch (this NN
    # missed an invalidation) and the cache flushes.
    max_pending_batches = 64

    def __init__(self, now: Callable[[], float], bus):
        self.bus = bus
        # (parent_id, name) -> InodeRow
        self._attrs = TtlLruMap(now, TTL_MS, MAX_ATTR_ENTRIES)
        # dir inode id -> (sorted-name tuple, name set)
        self._listings = TtlLruMap(now, TTL_MS, MAX_LISTING_ENTRIES)
        # Changelog gating state.
        self.epoch = bus.epoch
        self.applied_seq = bus.seq
        self._pending: set[int] = set()
        # Fill-race gating: every invalidation event advances _inval_seq
        # and stamps the affected directory ids; a fill token older than a
        # directory's stamp (or than the last flush) is discarded.
        self._inval_seq = 0
        self._flush_stamp = 0
        self._dir_stamp: dict[int, int] = {}
        # Plain-int counters (schedule-neutral; the obs registry reads the
        # first four through gauges).
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.flushes = 0
        self.fills = 0
        self.discarded_fills = 0
        self.batches_applied = 0
        self.stale_batches = 0

    # ------------------------------------------------------------------ serve
    def resolve(
        self, path: str, dir_cache=None, final_from_dir_cache: bool = False
    ) -> tuple[bool, Optional[InodeRow]]:
        """Resolve ``path`` purely from NN memory.

        Returns ``(definitive, row)``: ``(True, row)`` on a full cached
        resolution, ``(True, None)`` when a materialized parent listing
        proves the path absent, ``(False, None)`` when the cache cannot
        decide (fall through to the transactional path).

        *Intermediate* directory components may be served from the NN's
        legacy ``dir_cache`` when given — the transactional path resolves
        parents from exactly that cache (FAST'17 DAT hints), so trusting
        it here is observably equivalent to a miss.  The *final* component
        always comes from this cache's changelog-gated entries (or a
        materialized parent listing proving absence): that row is the
        result, and the legacy path always reads it fresh.

        ``final_from_dir_cache=True`` relaxes that for callers that only
        need the final directory's *id*, not its attributes — LIST_DIR,
        whose served payload (the listing keyed by that id) stays
        changelog-gated.  Trusting the dir cache for the id mapping is the
        same trust the legacy path extends to every parent directory.
        """
        try:
            components = split_path(path)
        except InvalidPathError:
            return False, None  # let the transactional path raise exactly
        row = root_row()
        last = len(components) - 1
        for depth, name in enumerate(components):
            if not row.is_dir:
                # Error path (file mid-path): serve transactionally so the
                # client sees the exact legacy exception.
                return False, None
            nxt = self._attrs.peek((row.id, name))
            if nxt is None and dir_cache is not None and (
                depth < last or final_from_dir_cache
            ):
                nxt = dir_cache.peek((row.id, name))
            if nxt is None:
                listing = self._listings.peek(row.id)
                if listing is not None and name not in listing[1]:
                    return True, None  # materialized listing proves absence
                return False, None
            row = nxt
        return True, row

    def listing(self, dir_id: int) -> Optional[list]:
        entry = self._listings.peek(dir_id)
        if entry is None:
            return None
        return list(entry[0])

    def record_hit(self) -> None:
        self.hits += 1

    def record_miss(self) -> None:
        self.misses += 1

    # ------------------------------------------------------------------ fills
    def begin_fill(self) -> tuple[int, int]:
        """Token capturing the invalidation state before a transactional read."""
        return (self.epoch, self._inval_seq)

    def fill_attr(self, token: tuple[int, int], row: InodeRow) -> None:
        epoch, at = token
        if epoch != self.epoch or at < self._flush_stamp:
            self.discarded_fills += 1
            return
        if self._dir_stamp.get(row.parent_id, 0) > at:
            self.discarded_fills += 1  # directory invalidated since the read
            return
        self._attrs.store((row.parent_id, row.name), row)
        self.fills += 1

    def fill_listing(self, token: tuple[int, int], dir_id: int, names) -> None:
        epoch, at = token
        if epoch != self.epoch or at < self._flush_stamp:
            self.discarded_fills += 1
            return
        if self._dir_stamp.get(dir_id, 0) > at:
            self.discarded_fills += 1
            return
        ordered = tuple(sorted(names))
        self._listings.store(dir_id, (ordered, frozenset(ordered)))
        self.fills += 1

    def prewarm(self, attrs: dict, listings: dict) -> None:
        """Take the entries :func:`materialize_snapshot` built from a
        committed namespace snapshot (what the paper's NN reads when it
        subscribes to the changelog: a snapshot, which the stream then
        keeps fresh).  The entries are immutable and may be shared with
        other caches; the dicts they land in are this NN's own.  The
        snapshot was read synchronously at the current simulated instant,
        so every entry is committed-consistent *now*; any later commit's
        changelog batch pops whatever it touches, exactly as for lazily
        filled entries.  Caps are honoured by refusing the bulk load when
        it would not fit — a partial listing materialization could wrongly
        prove absence.
        """
        if (
            len(attrs) > self._attrs.max_entries
            or len(listings) > self._listings.max_entries
        ):
            return
        self._attrs.update(attrs)
        self._listings.update(listings)
        self.fills += len(attrs) + len(listings)

    # ------------------------------------------------------------ invalidation
    def _stamp_dir(self, dir_id: int) -> None:
        self._dir_stamp[dir_id] = self._inval_seq

    def _drop_dir(self, dir_id: int) -> None:
        self._listings.pop(dir_id, None)
        self._stamp_dir(dir_id)

    def _invalidate_record(self, table, pk, value) -> None:
        if table != INODES_TABLE:
            return
        self._inval_seq += 1
        parent_id, _name = pk
        entry = self._attrs.pop(pk, None)
        self._drop_dir(parent_id)
        if entry is not None and entry[1].is_dir:
            self._drop_dir(entry[1].id)
        if value is not TOMBSTONE and isinstance(value, InodeRow) and value.is_dir:
            self._drop_dir(value.id)
        self.invalidations += 1

    def invalidate_path(self, path: str) -> None:
        """Eager local invalidation (read-your-writes on the mutating NN).

        Called before the mutation's reply leaves this NN, so a client
        that writes then reads through the same NN never sees its own
        write shadowed by a stale entry.  The authoritative changelog
        invalidation follows and is idempotent over this.
        """
        try:
            components = split_path(path)
        except InvalidPathError:
            return
        self._inval_seq += 1
        parent_id = ROOT_INODE_ID
        for name in components:
            entry = self._attrs.pop((parent_id, name), None)
            self._drop_dir(parent_id)
            self.invalidations += 1
            if entry is None:
                return
            row = entry[1]
            if not row.is_dir:
                return
            parent_id = row.id
        self._drop_dir(parent_id)  # the path named a cached directory

    # -------------------------------------------------------------- changelog
    def apply(self, batch) -> None:
        """Apply one changelog batch (epoch/sequence-gated)."""
        if batch.epoch > self.epoch:
            self.epoch = batch.epoch
            self.applied_seq = batch.seq
            self._pending.clear()
            self.flush()
            return
        if batch.epoch < self.epoch or batch.seq <= self.applied_seq or batch.seq in self._pending:
            self.stale_batches += 1
            return
        # Invalidation pops are order-independent: apply immediately, then
        # advance the contiguous high-water mark through the pending set.
        for table, pk, _partition_key, value in batch.records:
            self._invalidate_record(table, pk, value)
        self.batches_applied += 1
        self._pending.add(batch.seq)
        while self.applied_seq + 1 in self._pending:
            self.applied_seq += 1
            self._pending.remove(self.applied_seq)
        if len(self._pending) > self.max_pending_batches:
            # The hole below the pending window never filled: a batch was
            # lost while this NN was unreachable.  Anything cached before
            # the loss may be stale — flush and restart from the top.
            self.applied_seq = max(self._pending)
            self._pending.clear()
            self.flush()

    def flush(self) -> None:
        self._attrs.clear()
        self._listings.clear()
        self._dir_stamp.clear()
        self._inval_seq += 1
        self._flush_stamp = self._inval_seq
        self.flushes += 1

    def resync(self) -> None:
        """Re-align with the bus after this NN restarts.

        Changelog batches sent while the NN was down were dropped by the
        network; everything cached before the crash is untrustworthy.
        """
        self.epoch = self.bus.epoch
        self.applied_seq = self.bus.seq
        self._pending.clear()
        self.flush()

    # ------------------------------------------------------------------ audit
    def live_attrs(self, now: float):
        """Non-expired attr entries — exactly what ``serve`` would trust."""
        return self._attrs.live(now)

    def live_listings(self, now: float):
        """Non-expired listing entries — exactly what ``serve`` would trust."""
        return [(dir_id, names) for dir_id, (names, _set) in self._listings.live(now)]

    def __len__(self) -> int:
        return len(self._attrs) + len(self._listings)
