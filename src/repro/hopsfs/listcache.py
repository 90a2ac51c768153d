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
and invalidated only by the NDB changelog (``repro.ndb.changelog``):
every committed inode mutation fans out row images which pop the affected
attr and listing entries, and the namenode's dir-cache entry for the same
``(parent_id, name)``.  On a namenode subscribed to the changelog, one
invalidation path keeps a stale entry — of either cache — from being
served after its invalidation applies.  A namenode without the read front
subscribes to nothing: its dir cache still answers for up to its 5 s TTL
after a peer renames or deletes a directory (ROADMAP item 15(b)).

* **batches** — :meth:`ListingCache.apply` pops a batch's records, or
  flushes on a flush order (a TC-failure take-over that rolled a
  transaction forward and cannot itemize its rows).  Pops are idempotent
  and commute, so batches from different TCs may interleave.  The stream
  is FIFO per TC -> NN route and the TC publishes before it replies, so
  a mutation's batch reaches the mutating NN before the reply resumes its
  op: read-your-writes on the synchronous and the grouped path alike.
* **lost batches** — a batch the network drops on its way here (this NN
  down, partitioned away) flushes the cache at once; a restart flushes
  too.
* **fill tokens** — a fill begun before an invalidation of the same
  directory (or before a flush) is discarded, not applied, closing the
  read-then-invalidate-then-fill race.

Staleness across NNs is bounded by changelog delivery latency; ``TTL_MS``
bounds any entry's age regardless.  The cache is the namenode's *read
front* (:meth:`ListingCache.lookup` probes before the handler pool,
:meth:`~ListingCache.serve` checks the probe after it and walks again only
if a pending batch now holds the path or an entry the probe read moved or
expired, :meth:`~ListingCache.reader` / :meth:`~ListingCache.fill` around a
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
from .dircache import TtlLruMap, WalkView
from .groupcommit import SYNC_COMMIT
from .metadata import INODES_TABLE, ROOT_INODE_ID, InodeRow
from .ops import FileContent
from .pathlock import root_row, split_path

__all__ = ["ListingCacheConfig", "ListingCache", "NO_LISTING_CACHE", "materialize_snapshot",
           "read_front"]

# Age bound: entries older than this are never served, whatever the
# changelog did (a dropped batch flushes the cache outright).
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
    cache = ListingCache(nn.env, nn.dir_cache, committer=nn.committer)
    nn.ndb.changelog.subscribe(nn.addr, cache.flush)
    return cache


class ListingCache:
    """Per-NN pre-materialized listing/attr cache with changelog invalidation.

    ``dir_cache`` and ``committer`` are the namenode's: the read front
    resolves intermediate components through the one, which the changelog
    gates as it gates the attr tier, and defers to the other's pending
    batches.
    """

    # Reads it may serve from NN memory.  READ_FILE qualifies only for
    # small (inlined) files — block reads still need the block rows and
    # stay transactional.
    ops = frozenset({OpType.STAT, OpType.EXISTS, OpType.LIST_DIR, OpType.READ_FILE})

    def __init__(self, clock, dir_cache, committer=SYNC_COMMIT):
        self._clock = clock
        self.dir_cache = dir_cache
        self.committer = committer
        # (parent_id, name) -> InodeRow
        self._attrs = TtlLruMap(clock, TTL_MS, MAX_ATTR_ENTRIES)
        # dir inode id -> (sorted-name tuple, name set)
        self._listings = TtlLruMap(clock, TTL_MS, MAX_LISTING_ENTRIES)
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

    # ------------------------------------------------------------ read front
    def lookup(self, op: OpType, kwargs):
        """The probe before the handler pool: ``(result, witness)`` when
        ``op`` can be answered from memory now, else None (a miss, if ``op``
        is one the cache serves).  The witness holds one ``(map, key, entry
        or None)`` per map read the walk made: what :meth:`serve` checks."""
        if op not in self.ops:
            return None
        probe = self._answer(op, kwargs)
        if probe is None:
            self.misses += 1
        return probe

    def serve(self, op: OpType, kwargs, probe):
        """A probed hit after the pool wait, or None: an invalidation may have
        landed meanwhile, and then the op goes transactional without
        re-paying the pool.

        The probe stands while no pending batch holds the path and every
        map read it witnessed still finds the identical entry, unexpired by
        its own map's TTL (``store`` builds a new entry each time, so a
        refill, pop, flush or eviction breaks identity): a second walk would
        read the same entries and give the same answer.  Otherwise it
        walks again, counted as a fresh probe."""
        if not self.committer.holds(op, kwargs):
            now = self._clock.now
            for tier, key, entry in probe[1]:
                if tier.get(key) is not entry or (
                    entry is not None and now - entry[0] > tier.ttl_ms
                ):
                    break
            else:
                self.hits += 1
                return probe
        probe = self.lookup(op, kwargs)
        if probe is not None:
            self.hits += 1
        return probe

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
        seen = []
        definitive, row = self.resolve(path, op is OpType.LIST_DIR, seen)
        if not definitive:
            return None
        if op is OpType.EXISTS:
            return (row is not None, seen)
        if row is None:
            return None  # FileNotFound error paths stay transactional
        if op is OpType.STAT:
            return (row, seen)
        if op is OpType.READ_FILE:
            if row.is_dir or row.small_data is None:
                return None  # large files read blocks transactionally
            return (FileContent(inode=row, small_data=row.small_data), seen)
        if not row.is_dir:
            return None  # LIST_DIR: NotADirectory error path stays transactional
        listings = self._listings
        entry = listings.entry(row.id)
        if entry is None:
            return None
        seen.append((listings, row.id, entry))
        return (list(entry[1][0]), seen)

    def reader(self, op: OpType, ctx):
        """``(ctx, fill)`` for ``op``'s transaction.  A read the cache serves
        resolves through a :class:`WalkView` of the dir cache, which records
        the rows the transaction reads fresh; ``fill`` is that view and a
        fill token taken now, so an invalidation racing the read discards
        the fill rather than vice versa."""
        if op not in self.ops:
            return ctx, None
        view = WalkView(self.dir_cache)
        return dataclasses.replace(ctx, dir_cache=view), (view, self.begin_fill())

    def fill(self, op: OpType, kwargs, result, fill) -> None:
        """Populate the cache from a transactional read's rows.

        Only rows read (or the result produced) inside the transaction are
        filled — never dir-cache hits: a hit may be up to its TTL stale,
        which is fine for transactional resolution (row locks re-verify the
        target) but must never become a changelog-gated entry.  The fill's
        token discards fills that raced an invalidation of the same
        directory.
        """
        if fill is None:
            return
        view, token = fill
        for row in view.rows:
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

    # ------------------------------------------------------------------ serve
    def resolve(
        self, path: str, final_from_dir_cache: bool = False, seen: Optional[list] = None
    ) -> tuple[bool, Optional[InodeRow]]:
        """Resolve ``path`` purely from NN memory.

        Returns ``(definitive, row)``: ``(True, row)`` on a full cached
        resolution, ``(True, None)`` when a materialized parent listing
        proves the path absent, ``(False, None)`` when the cache cannot
        decide (fall through to the transactional path).

        *Intermediate* directory components may be served from the NN's
        ``dir_cache`` — the transactional path resolves parents from exactly
        that cache (FAST'17 DAT hints), and the changelog this NN subscribes
        to pops a dir-cache entry with the attr entry of the same key, so
        trusting it here is observably equivalent to a miss once the
        mutation's batch has applied.  (Without a subscription, the default
        path's dir cache stays stale for up to its TTL: ROADMAP item 15(b).)
        The *final* component always comes from this cache's changelog-gated
        entries (or a materialized parent listing proving absence): that row
        is the result, and the legacy path always reads it fresh.

        ``final_from_dir_cache=True`` relaxes that for callers that only
        need the final directory's *id*, not its attributes — LIST_DIR,
        whose served payload (the listing keyed by that id) stays
        changelog-gated.  Trusting the dir cache for the id mapping is the
        same trust the legacy path extends to every parent directory.

        ``seen``, when given, gets one ``(map, key, entry or None)`` per map
        read the walk makes: a probe's witness.
        """
        if seen is None:
            seen = []
        try:
            components = split_path(path)
        except InvalidPathError:
            return False, None  # let the transactional path raise exactly
        attrs = self._attrs
        dir_cache = self.dir_cache
        row = root_row()
        last = len(components) - 1
        for depth, name in enumerate(components):
            if not row.is_dir:
                # Error path (file mid-path): serve transactionally so the
                # client sees the exact legacy exception.
                return False, None
            key = (row.id, name)
            entry = attrs.entry(key)
            seen.append((attrs, key, entry))
            if entry is None and (depth < last or final_from_dir_cache):
                entry = dir_cache.entry(key)
                seen.append((dir_cache, key, entry))
            if entry is None:
                listings = self._listings
                listing = listings.entry(row.id)
                seen.append((listings, row.id, listing))
                if listing is not None and name not in listing[1][1]:
                    return True, None  # materialized listing proves absence
                return False, None
            row = entry[1]
        return True, row

    def listing(self, dir_id: int) -> Optional[list]:
        entry = self._listings.entry(dir_id)
        return None if entry is None else list(entry[1][0])

    # ------------------------------------------------------------------ fills
    def begin_fill(self) -> int:
        """Token capturing the invalidation state before a transactional read."""
        return self._inval_seq

    def _admits(self, token: int, dir_id: int) -> bool:
        """Whether a fill of ``dir_id``'s entries read at ``token`` may land
        (not if a flush or an invalidation of the directory came since),
        counted as a fill or a discard."""
        if token < self._flush_stamp or self._dir_stamp.get(dir_id, 0) > token:
            self.discarded_fills += 1
            return False
        self.fills += 1
        return True

    def fill_attr(self, token: int, row: InodeRow) -> None:
        if self._admits(token, row.parent_id):
            self._attrs.store((row.parent_id, row.name), row)

    def fill_listing(self, token: int, dir_id: int, names) -> None:
        if self._admits(token, dir_id):
            ordered = tuple(sorted(names))
            self._listings.store(dir_id, (ordered, frozenset(ordered)))

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
    def _drop_dir(self, dir_id: int) -> None:
        self._listings.pop(dir_id, None)
        self._dir_stamp[dir_id] = self._inval_seq

    def _invalidate_record(self, table, pk, value) -> None:
        if table != INODES_TABLE:
            return
        self._inval_seq += 1
        parent_id, _name = pk
        entry = self._attrs.pop(pk, None)
        self.dir_cache.pop(pk, None)
        self._drop_dir(parent_id)
        if entry is not None and entry[1].is_dir:
            self._drop_dir(entry[1].id)
        if value is not TOMBSTONE and isinstance(value, InodeRow) and value.is_dir:
            self._drop_dir(value.id)
        self.invalidations += 1

    # -------------------------------------------------------------- changelog
    def apply(self, batch) -> None:
        """Apply one changelog batch: pop its records, or flush on a flush
        order.  Pops are idempotent and commute, so arrival order across
        TCs does not matter."""
        if batch.flush:
            self.flush()
            return
        for table, pk, _partition_key, value in batch.records:
            self._invalidate_record(table, pk, value)
        self.batches_applied += 1

    def flush(self) -> None:
        """Drop everything: a flush order, a lost batch or a restart."""
        self._attrs.clear()
        self._listings.clear()
        self.dir_cache.clear()
        self._dir_stamp.clear()
        self._inval_seq += 1
        self._flush_stamp = self._inval_seq
        self.flushes += 1

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
    fills and subscribes to nothing, so no changelog batch reaches it; its
    counters read 0."""

    hits = misses = invalidations = 0

    def lookup(self, op, kwargs) -> None:
        """A miss, though nothing counts it."""

    def reader(self, op, ctx) -> tuple:
        return ctx, None

    def fill(self, op, kwargs, result, fill) -> None:
        """Nothing is kept."""

    def flush(self) -> None:
        """Nothing to drop."""

    def prewarm(self, snapshot) -> None:
        """Nothing to take."""


NO_LISTING_CACHE = _NoListingCache()
