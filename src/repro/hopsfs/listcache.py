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
out).  The cache is the namenode's *read front* (:meth:`ListingCache.lookup`
before the handler pool, :meth:`~ListingCache.serve` after it,
:meth:`~ListingCache.reader` / :meth:`~ListingCache.fill` around a
transactional miss).  :func:`read_front` builds it once per namenode; with
``HopsFsConfig.listing_cache=None`` (the default) it returns
:data:`NO_LISTING_CACHE`, which never hits, never fills and subscribes to
nothing — no messages, no events, so the default path stays on the pinned
golden schedules.  The cache has no knobs: its bounds and hit cost are the
module constants below.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import InvalidPathError
from ..ndb.schema import TOMBSTONE
from ..types import OpType
from .dircache import TtlLruMap
from .groupcommit import SYNC_COMMIT, op_paths
from .metadata import INODES_TABLE, ROOT_INODE_ID, InodeRow
from .ops import FileContent
from .pathlock import root_row, split_path
from .robust import do_nothing

__all__ = ["ListingCacheConfig", "ListingCache", "NO_LISTING_CACHE", "materialize_snapshot",
           "read_front"]

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


def read_front(config: Optional[ListingCacheConfig], nn):
    """``nn``'s read front for ``HopsFsConfig.listing_cache``: a listing
    cache subscribed to the NDB changelog, or :data:`NO_LISTING_CACHE`."""
    if config is None:
        return NO_LISTING_CACHE
    bus = nn.ndb.changelog
    cache = ListingCache(nn.env, bus, dir_cache=nn.dir_cache, committer=nn.committer)
    bus.subscribe(nn.addr)
    return cache


class _FillRecorder:
    """Per-op dir-cache shim that records rows for a listing-cache fill.

    ``lookup``/``put`` delegate to the real dir cache, so the
    listing-cache miss path resolves at exactly the legacy cost (the read
    ops it wraps never invalidate, so there is no ``pop``).  Only the
    rows the transaction *freshly read* (those it ``put``) are recorded
    and imported into the listing cache — a row served from the dir cache
    may be up to its TTL stale, which is fine for transactional resolution
    (row locks re-verify the target) but must never become a
    changelog-audited listing-cache entry.  ``token`` is the fill token
    taken as the read began.
    """

    __slots__ = ("_dir_cache", "rows", "token")

    def __init__(self, dir_cache, token):
        self._dir_cache = dir_cache
        self.rows = []
        self.token = token

    def lookup(self, key):
        return self._dir_cache.lookup(key)

    def put(self, row):
        self._dir_cache.put(row)
        self.rows.append(row)


class ListingCache:
    """Per-NN pre-materialized listing/attr cache with changelog invalidation.

    ``dir_cache`` and ``committer`` are the namenode's: the read front
    resolves intermediate components through the one and defers to the
    other's pending batches.
    """

    # Out-of-order tolerance: how many sequence numbers may sit above a
    # delivery hole before the hole is declared a *lost* batch (this NN
    # missed an invalidation) and the cache flushes.
    max_pending_batches = 64

    # Reads it may serve from NN memory.  READ_FILE qualifies only for
    # small (inlined) files — block reads still need the block rows and
    # stay transactional.
    ops = frozenset({OpType.STAT, OpType.EXISTS, OpType.LIST_DIR, OpType.READ_FILE})

    def __init__(self, clock, bus, dir_cache=None, committer=SYNC_COMMIT):
        self.bus = bus
        self.dir_cache = dir_cache
        self.committer = committer
        # (parent_id, name) -> InodeRow
        self._attrs = TtlLruMap(clock, TTL_MS, MAX_ATTR_ENTRIES)
        # dir inode id -> (sorted-name tuple, name set)
        self._listings = TtlLruMap(clock, TTL_MS, MAX_LISTING_ENTRIES)
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

    # ------------------------------------------------------------ read front
    def lookup(self, op: OpType, kwargs):
        """The probe before the handler pool: ``(result,)`` when ``op`` can be
        answered from memory now, else None (a miss, if ``op`` is one the
        cache serves).  The tuple tells a cached ``None``/``False`` from a
        miss."""
        if op not in self.ops:
            return None
        hit = self._answer(op, kwargs)
        if hit is None:
            self.misses += 1
        return hit

    def serve(self, op: OpType, kwargs):
        """Re-resolve a probed hit after the pool wait: an invalidation may
        have landed meanwhile, and then the op goes transactional without
        re-paying the pool."""
        hit = self.lookup(op, kwargs)
        if hit is not None:
            self.hits += 1
        return hit

    def _answer(self, op: OpType, kwargs):
        path = kwargs.get("path")
        if path is None:
            return None
        # Async group commit: an early-acked batch touching this path may
        # not have committed (and so not invalidated) yet.  Serving from
        # cache here would break read-your-writes; fall through to the
        # transactional path, which awaits the conflicting batch.
        if self.committer.holds(op, kwargs):
            return None
        definitive, row = self.resolve(path, final_from_dir_cache=op is OpType.LIST_DIR)
        if not definitive:
            return None
        if op is OpType.EXISTS:
            return (row is not None,)
        if row is None:
            return None  # FileNotFound error paths stay transactional
        if op is OpType.STAT:
            return (row,)
        if op is OpType.READ_FILE:
            if row.is_dir or row.small_data is None:
                return None  # large files read blocks transactionally
            return (FileContent(inode=row, small_data=row.small_data),)
        if not row.is_dir:
            return None  # LIST_DIR: NotADirectory error path stays transactional
        names = self.listing(row.id)
        if names is None:
            return None
        return (names,)

    def reader(self, op: OpType, ctx):
        """``(ctx, fill)`` for ``op``'s transaction.  A read the cache serves
        resolves with fresh transactional reads recorded for the fill, under
        a fill token taken now, so an invalidation racing the read discards
        the fill rather than vice versa."""
        if op not in self.ops:
            return ctx, None
        fill = _FillRecorder(self.dir_cache, self.begin_fill())
        return dataclasses.replace(ctx, dir_cache=fill), fill

    def fill(self, op: OpType, kwargs, result, fill) -> None:
        """Populate the cache from a transactional read's rows.

        Only rows read (or the result produced) inside the transaction are
        filled — never dir-cache contents, which may be seconds stale and
        are not changelog-invalidated.  The fill's token discards fills
        that raced an invalidation of the same directory.
        """
        if fill is None:
            return
        token = fill.token
        for row in fill.rows:
            if row.id != ROOT_INODE_ID:
                self.fill_attr(token, row)
        if op is OpType.STAT and result is not None:
            if result.id != ROOT_INODE_ID:
                self.fill_attr(token, result)
        elif op is OpType.READ_FILE and result is not None:
            if result.small_data is not None and result.inode.id != ROOT_INODE_ID:
                self.fill_attr(token, result.inode)
        elif op is OpType.LIST_DIR:
            definitive, row = self.resolve(kwargs["path"], final_from_dir_cache=True)
            if definitive and row is not None and row.is_dir:
                self.fill_listing(token, row.id, result)

    def invalidate(self, op: OpType, kwargs) -> None:
        """Read-your-writes belt-and-braces for a mutation this NN applied:
        the changelog invalidation is already in flight (published at the
        TC commit point, before the reply), but drop our own entries
        eagerly too."""
        for components in op_paths(op, kwargs):
            self.invalidate_path("/" + "/".join(components))

    # ------------------------------------------------------------------ serve
    def resolve(
        self, path: str, final_from_dir_cache: bool = False
    ) -> tuple[bool, Optional[InodeRow]]:
        """Resolve ``path`` purely from NN memory.

        Returns ``(definitive, row)``: ``(True, row)`` on a full cached
        resolution, ``(True, None)`` when a materialized parent listing
        proves the path absent, ``(False, None)`` when the cache cannot
        decide (fall through to the transactional path).

        *Intermediate* directory components may be served from the NN's
        legacy ``dir_cache`` when it has one — the transactional path resolves
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
        dir_cache = self.dir_cache
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

    def prewarm(self, snapshot: Callable[[], tuple[dict, dict]]) -> None:
        """Take the entries :func:`materialize_snapshot` built from a
        committed namespace snapshot; ``snapshot()`` returns them, built
        once for every NN of a deployment (what the paper's NN reads when it
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
        attrs, listings = snapshot()
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


class _NoListingCache:
    """The read front with ``listing_cache`` off: it never hits, never
    fills and subscribes to nothing; its counters read 0."""

    hits = misses = invalidations = 0
    lookup = fill = invalidate = apply = resync = prewarm = staticmethod(do_nothing)

    def reader(self, op, ctx) -> tuple:
        return ctx, None


NO_LISTING_CACHE = _NoListingCache()
