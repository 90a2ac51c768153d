"""The pre-materialized listing/attr cache and its changelog invalidation.

Two layers of coverage:

* unit tests over :class:`~repro.hopsfs.listcache.ListingCache` gating
  (fill tokens, flush orders, out-of-order batches, LRU bounds, TTL);
* functional tests on a small deployment (hits actually serve, mutations
  invalidate every NN's cache, read-your-writes, a lost batch flushes its
  subscriber, obs counters).

The cached path's client-observable semantics are checked against the
namespace reference model by ``test_path_matrix.py``.
"""

from types import SimpleNamespace

import pytest

from repro.chaos.invariants import listing_consistency
from repro.experiments.setups import SETUPS
from repro.hopsfs import RobustConfig
from repro.hopsfs.dircache import DirCache
from repro.hopsfs.groupcommit import AsyncCommitConfig
from repro.hopsfs.listcache import (
    NO_LISTING_CACHE,
    ListingCache,
    ListingCacheConfig,
    materialize_snapshot,
)
from repro.hopsfs.metadata import INODES_TABLE, InodeRow
from repro.ndb.changelog import ChangelogBatch, ChangelogBus
from repro.ndb.schema import TOMBSTONE
from repro.net import Network, build_us_west1
from repro.sim import Environment
from repro.types import NodeAddress, NodeKind
from repro.workloads.namespace import generate_namespace

from .conftest import make_fs, run


def _cache(ttl_ms=None, max_attr_entries=None, max_listing_entries=None):
    """A cache on a settable clock, with the bounds a test varies set on it."""
    clock = SimpleNamespace(now=0.0)
    cache = ListingCache(clock, DirCache(clock))
    for tier, cap in ((cache._attrs, max_attr_entries),
                      (cache._listings, max_listing_entries)):
        if ttl_ms is not None:
            tier.ttl_ms = ttl_ms
        if cap is not None:
            tier.max_entries = cap
    return cache, clock


def _row(inode_id, parent_id, name, is_dir=False):
    return InodeRow(id=inode_id, parent_id=parent_id, name=name, is_dir=is_dir)


def _batch(*records):
    return ChangelogBatch(tuple(records))


def _delete(parent_id, name):
    return (INODES_TABLE, (parent_id, name), parent_id, TOMBSTONE)


# ------------------------------------------------------------------ unit tests
def test_resolve_serves_filled_rows_and_listing_absence():
    cache, _clock = _cache()
    token = cache.begin_fill()
    d = _row(2, 1, "d", is_dir=True)
    f = _row(3, 2, "f")
    cache.fill_attr(token, d)
    cache.fill_attr(token, f)
    cache.fill_listing(token, 2, ["f"])
    assert cache.resolve("/d") == (True, d)
    assert cache.resolve("/d/f") == (True, f)
    # The materialized listing proves absence definitively.
    assert cache.resolve("/d/nope") == (True, None)
    # No listing for root: /other is undecidable, not absent.
    assert cache.resolve("/other") == (False, None)
    assert cache.listing(2) == ["f"]


def test_fill_race_discarded_after_invalidation():
    cache, _clock = _cache()
    token = cache.begin_fill()  # transactional read begins...
    cache.apply(_batch(_delete(1, "d")))
    cache.fill_attr(token, _row(2, 1, "d", is_dir=True))  # ...fill loses
    assert cache.discarded_fills == 1
    assert cache.resolve("/d") == (False, None)
    # A fresh token filled after the invalidation is accepted.
    cache.fill_attr(cache.begin_fill(), _row(2, 1, "d", is_dir=True))
    assert cache.resolve("/d")[0] is True


def test_fill_discarded_after_flush():
    cache, _clock = _cache()
    token = cache.begin_fill()
    cache.flush()
    cache.fill_attr(token, _row(2, 1, "d"))
    assert cache.discarded_fills == 1
    assert len(cache) == 0


def test_invalidation_pops_attr_and_both_listings():
    cache, _clock = _cache()
    token = cache.begin_fill()
    d = _row(2, 1, "d", is_dir=True)
    cache.fill_attr(token, d)
    cache.fill_listing(token, 1, ["d"])
    cache.fill_listing(token, 2, ["f"])
    cache.apply(_batch(_delete(1, "d")))
    assert cache.resolve("/d") == (False, None)
    assert cache.listing(1) is None  # parent listing changed
    assert cache.listing(2) is None  # the dir itself is gone


def _popped_state(batches):
    """What applying ``batches`` in this order leaves of a filled cache."""
    cache, _clock = _cache()
    token = cache.begin_fill()
    for inode_id, name in ((2, "a"), (3, "b"), (4, "c")):
        cache.fill_attr(token, _row(inode_id, 1, name))
    for batch in batches:
        cache.apply(batch)
    assert cache.flushes == 0 and cache.batches_applied == len(batches)
    return sorted(key for key, _entry in cache.live_attrs(0.0))


def test_out_of_order_batches_apply_without_flush():
    """Pops are idempotent and commute: batches from two TCs interleave in
    either order, a batch applied twice pops nothing more, nothing flushes."""
    first, second = _batch(_delete(1, "a")), _batch(_delete(1, "b"))
    left = [(1, "c")]
    assert _popped_state([first, second]) == left
    assert _popped_state([second, first]) == left
    assert _popped_state([second, first, second]) == left


def test_flush_order_flushes_wholesale():
    cache, _clock = _cache()
    token = cache.begin_fill()
    cache.fill_attr(token, _row(2, 1, "a"))
    cache.dir_cache.put(_row(5, 1, "dir", is_dir=True))
    cache.apply(ChangelogBatch((), flush=True))
    assert cache.flushes == 1 and len(cache) == 0 and len(cache.dir_cache) == 0
    assert cache.batches_applied == 0
    # A fill read before the flush order is discarded.
    cache.fill_attr(token, _row(2, 1, "a"))
    assert cache.discarded_fills == 1 and len(cache) == 0


def test_publish_flush_sends_one_flush_order_per_subscriber():
    env = Environment()
    topo = build_us_west1()
    net = Network(env, topo)
    tc, nn_a, nn_b = (NodeAddress(NodeKind.NAMENODE, i) for i in (1, 2, 3))
    for addr in (tc, nn_a, nn_b):
        topo.add_host(addr, az=1)
    bus = ChangelogBus(net)
    got = []
    for addr in (nn_b, nn_a):
        net.register(addr, lambda msg, addr=addr: got.append((addr, msg.payload)))
        bus.subscribe(addr, lost=lambda: None)
    assert bus.subscribers == (nn_a, nn_b)  # fan-out in address order
    bus.publish_flush(tc)
    bus.publish(tc, [])  # nothing committed: nothing sent
    env.run()
    flush = ChangelogBatch((), flush=True)
    assert got == [(nn_a, flush), (nn_b, flush)] and bus.published == 1


def test_ttl_expires_entries():
    cache, clock = _cache(ttl_ms=10.0)
    token = cache.begin_fill()
    cache.fill_attr(token, _row(2, 1, "d", is_dir=True))
    cache.fill_listing(token, 2, ["f"])
    assert cache.resolve("/d")[0] is True
    clock.now = 11.0
    assert cache.resolve("/d") == (False, None)
    assert cache.listing(2) is None
    assert cache.live_attrs(clock.now) == [] and cache.live_listings(clock.now) == []


def test_lru_bounds_evict_oldest():
    cache, _clock = _cache(max_attr_entries=2, max_listing_entries=2)
    token = cache.begin_fill()
    for i, name in enumerate(("a", "b", "c")):
        cache.fill_attr(token, _row(10 + i, 1, name))
        cache.fill_listing(token, 10 + i, [name])
    assert len(cache._attrs) == 2 and len(cache._listings) == 2
    assert (1, "a") not in cache._attrs  # oldest attr evicted
    assert 10 not in cache._listings  # oldest listing evicted
    assert (1, "c") in cache._attrs


def test_a_changelog_pop_discards_a_fill_begun_before_it():
    cache, _clock = _cache()
    token = cache.begin_fill()
    d = _row(2, 1, "d", is_dir=True)
    f = _row(3, 2, "f")
    cache.fill_attr(token, d)
    cache.fill_attr(token, f)
    cache.fill_listing(token, 2, ["f"])
    cache.apply(_batch(_delete(2, "f")))
    assert cache.resolve("/d/f") == (False, None)
    assert cache.listing(2) is None
    # A fill begun before the pop is discarded: its directory moved since.
    cache.fill_attr(token, f)
    assert cache.discarded_fills == 1
    assert cache.resolve("/d") == (True, d)  # /d's own entry was not touched


# ------------------------------------------------------------ functional tests
def _warm_fs():
    fs = make_fs(num_namenodes=2, listing_cache=ListingCacheConfig())
    client = fs.client()

    def setup():
        yield from fs.await_election()
        yield from client.mkdir("/d")
        yield from client.create("/d/f", data=b"hello")

    run(fs, setup())
    return fs, client


def test_cache_serves_hot_reads_from_nn_memory():
    fs, client = _warm_fs()
    out = {}

    def reads():
        for _ in range(2):  # first round fills, second hits
            out["list"] = yield from client.listdir("/d")
            out["stat"] = yield from client.stat("/d/f")
            out["read"] = yield from client.read("/d/f")
            out["exists"] = yield from client.exists("/d/f")

    run(fs, reads())
    assert out["list"] == ["f"]
    assert out["stat"].name == "f" and not out["stat"].is_dir
    assert bytes(out["read"].small_data) == b"hello"
    assert out["exists"] is True
    hits = sum(nn.listing_cache.hits for nn in fs.namenodes)
    fills = sum(nn.listing_cache.fills for nn in fs.namenodes)
    assert hits >= 4  # the whole second round was served from memory
    assert fills > 0


def test_mutation_invalidates_every_nn_via_changelog():
    fs, client = _warm_fs()
    out = {}

    def flow():
        yield from client.listdir("/d")  # warm the serving NN
        yield from client.listdir("/d")
        yield from client.delete("/d/f")
        yield fs.env.timeout(50.0)  # changelog fan-out settles
        out["list"] = yield from client.listdir("/d")
        out["exists"] = yield from client.exists("/d/f")

    run(fs, flow())
    assert out["list"] == []
    assert out["exists"] is False
    # Every NN saw the invalidation traffic, not just the mutating one.
    for nn in fs.namenodes:
        assert nn.listing_cache.batches_applied > 0
    assert fs.ndb.changelog.published > 0
    assert listing_consistency(fs).ok


def test_read_your_writes_on_the_same_nn():
    fs, client = _warm_fs()
    out = {}

    def flow():
        # Warm, then mutate and immediately re-read with no settle time:
        # the eager invalidation (and commit-point changelog ordering)
        # must keep the client from seeing its own write shadowed.
        yield from client.listdir("/d")
        yield from client.listdir("/d")
        yield from client.create("/d/g", data=b"x")
        out["list"] = yield from client.listdir("/d")
        out["stat"] = yield from client.stat("/d/g")

    run(fs, flow())
    assert out["list"] == ["f", "g"]
    assert out["stat"].name == "g"


def test_grouped_mutations_are_read_your_writes_through_the_cache():
    """``async_commit`` + ``listing_cache`` on one NN.

    A read prefix-related to an unsettled group batch must not be served
    from the (not yet invalidated) cache, and a read issued right after
    ``fsync()`` returns must already see the committed batch.
    """
    fs = make_fs(
        num_namenodes=1,
        listing_cache=ListingCacheConfig(),
        # A linger far longer than a client round trip keeps the batch
        # open (unsettled) when the follow-up read arrives.
        async_commit=AsyncCommitConfig(linger_ms=5.0, max_batch_ops=8),
    )
    client = fs.client()
    nn = fs.namenodes[0]
    out = {}

    def warm(keep):
        hits = nn.listing_cache.hits
        for _ in range(2):  # first round fills, second hits
            yield from client.listdir("/d")
            yield from client.stat("/d/f")
            yield from client.exists(keep)
        assert nn.listing_cache.hits >= hits + 2  # the stat and the exists

    def flow():
        yield from fs.await_election()
        yield from client.mkdir("/d")
        yield from client.create("/d/f", data=b"hello")
        yield from client.create("/d/old", data=b"x")
        yield from client.fsync()
        yield from warm("/d/old")
        # (a) each read arrives while its mutation's batch is unsettled.
        yield from client.mkdir("/d/sub")
        out["pending"] = nn.committer.pending_batches
        out["a_list"] = yield from client.listdir("/d")
        yield from client.delete("/d/f")
        out["a_exists"] = yield from client.exists("/d/f")
        yield from client.rename("/d/old", "/d/new")
        out["a_stat"] = (yield from client.stat("/d/new")).name
        out["a_old"] = yield from client.exists("/d/old")
        # (b) re-warm, mutate, fsync, and read with no settle time.
        yield from client.create("/d/f", data=b"again")
        yield from client.fsync()
        yield from warm("/d/new")
        yield from client.mkdir("/d/sub2")
        yield from client.delete("/d/f")
        yield from client.rename("/d/new", "/d/newer")
        assert (yield from client.fsync()) is True
        out["settled"] = nn.committer.pending_batches
        out["b_list"] = yield from client.listdir("/d")
        out["b_exists"] = yield from client.exists("/d/f")
        out["b_old"] = yield from client.exists("/d/new")
        out["b_stat"] = (yield from client.stat("/d/newer")).name

    run(fs, flow())
    assert out["pending"] >= 1
    assert out["a_list"] == ["f", "old", "sub"]
    assert out["a_exists"] is False
    assert (out["a_stat"], out["a_old"]) == ("new", False)
    assert out["settled"] == 0
    assert out["b_list"] == ["newer", "sub", "sub2"]
    assert out["b_exists"] is False
    assert (out["b_stat"], out["b_old"]) == ("newer", False)
    assert listing_consistency(fs).ok


def _nn_alone_in_az3(**config):
    """NDB and NN 1 in AZ 1; NN 2 added in AZ 3 with a client stuck to it,
    so partitioning AZ 3 away cuts NN 2 off and nothing else it needs."""
    fs = make_fs(num_namenodes=1, azs=(1,), listing_cache=ListingCacheConfig(), **config)
    run(fs, fs.await_election())
    far = fs.add_namenode(az=3)
    client = fs.client(az=3)
    client.current_nn = far.addr
    return fs, far, client


def test_a_batch_dropped_on_its_way_to_a_live_nn_flushes_it_at_once():
    fs, far, reader = _nn_alone_in_az3()
    writer = fs.client(az=1)
    writer.current_nn = fs.namenodes[0].addr
    cache = far.listing_cache
    out = {}

    def flow():
        yield from writer.mkdir("/d")
        yield from reader.listdir("/d")
        out["hit"] = yield from reader.listdir("/d")
        out["warm"] = (len(cache), cache.flushes, cache.hits)
        fs.network.partition_azs({3}, {1, 2})
        yield from writer.create("/d/f", data=b"x")
        # The create's batch to the far NN was dropped on delivery, well
        # before its reply reached the writer: the far NN is flushed now.
        out["cut"] = (len(cache), cache.flushes)
        fs.network.heal_partitions()
        out["list"] = yield from reader.listdir("/d")

    run(fs, flow())
    size, flushes, hits = out["warm"]
    assert out["hit"] == [] and hits >= 1 and size > 0
    assert out["cut"][0] == 0 and out["cut"][1] > flushes
    assert out["list"] == ["f"]
    assert listing_consistency(fs).ok


def test_a_replayed_grouped_write_whose_batch_was_lost_is_read_on_its_nn(monkeypatch):
    """``async_commit`` + ``listing_cache``: the batch's commit lands, then
    its commit reply and its changelog batch to the NN are both lost (AZ 3
    is cut off right after the TC publishes).  The flush retry finds the
    acked member's retry row and settles the batch committed; a read on the
    same NN must then return the write, not the cached listing."""
    fs, far, client = _nn_alone_in_az3(
        robust=RobustConfig(), async_commit=AsyncCommitConfig(linger_ms=1.0, max_batch_ops=8)
    )
    network = fs.network
    real_publish = ChangelogBus.publish
    cut = []

    def publish(bus, src, records):
        real_publish(bus, src, records)
        if not cut and any(table == INODES_TABLE and pk[1] == "g"
                           for table, pk, _key, _value in records):
            cut.append(fs.env.now)
            network.partition_azs({3}, {1, 2})
            fs.env.schedule_after(2.0, lambda _arg: network.heal_partitions(), None)

    monkeypatch.setattr(ChangelogBus, "publish", publish)
    out = {}

    def flow():
        yield from client.mkdir("/d")
        yield from client.create("/d/f", data=b"x")
        assert (yield from client.fsync()) is True
        yield from client.listdir("/d")
        yield from client.listdir("/d")  # filled, then a hit
        yield from client.create("/d/g", data=b"y")
        out["fsync"] = yield from client.fsync()
        out["list"] = yield from client.listdir("/d")

    run(fs, flow())
    assert cut and out["fsync"] is True
    batch = fs.group_ledger.batches[client.durability_horizon]
    assert batch.state == "committed" and fs.group_ledger.lost_acks == 0
    assert far.committer.batches_committed >= 3
    assert out["list"] == ["f", "g"]
    assert listing_consistency(fs).ok


def _created_through_a_read_through_b():
    """``/d/f`` created through NN A; a client stuck to NN B, whose dir
    cache has never seen ``/d``.  No ``install``, so nothing is pre-warmed:
    the only way ``/d``'s row can reach B's listing cache is the fill
    recorder importing what B's own transaction freshly read."""
    fs = make_fs(num_namenodes=2, listing_cache=ListingCacheConfig())
    nn_a, nn_b = fs.namenodes
    writer, reader = fs.client(), fs.client()

    def setup():
        yield from fs.await_election()
        writer.current_nn = nn_a.addr
        yield from writer.mkdir("/d")
        yield from writer.create("/d/f", data=b"hello")
        reader.current_nn = nn_b.addr

    run(fs, setup())
    assert (1, "d") in nn_a.dir_cache and (1, "d") not in nn_b.dir_cache
    assert len(nn_b.listing_cache) == 0
    return fs, reader, nn_b


def test_cold_nn_imports_the_directory_row_it_freshly_read():
    fs, reader, nn_b = _created_through_a_read_through_b()
    cache = nn_b.listing_cache
    f = run(fs, reader.stat("/d/f"))
    assert nn_b.ops_served == 1 and (cache.hits, cache.misses) == (0, 1)
    # The transaction read /d from NDB on its way to /d/f: into the dir
    # cache *and*, through the recorder, into the listing cache as an attr
    # entry (the op's result fills only /d/f itself).
    d = nn_b.dir_cache.entry((1, "d"))[1]
    assert d.id == f.parent_id
    assert cache._attrs.entry((1, "d"))[1] == d
    assert cache._attrs.entry((d.id, "f"))[1] == f and cache.fills == 2
    stats = fs.ndb.read_stats
    reads = stats.az_local_reads + stats.az_remote_reads
    assert run(fs, reader.stat("/d/f")) == f  # served from NN memory
    assert run(fs, reader.stat("/d")) == d  # the imported row is the result
    assert (cache.hits, cache.misses) == (2, 1)
    assert stats.az_local_reads + stats.az_remote_reads == reads
    assert listing_consistency(fs).ok


def test_invalidation_between_the_read_and_the_fill_discards_the_import(monkeypatch):
    fs, reader, nn_b = _created_through_a_read_through_b()
    cache = nn_b.listing_cache
    real_put = DirCache.put

    def put_then_invalidate(self, row):
        real_put(self, row)
        if self is nn_b.dir_cache and row.name == "d":
            # Some other NN's commit under "/" lands while B's transaction
            # is still open: the root directory is stamped after B's token.
            cache.apply(_batch(_delete(1, "other")))

    monkeypatch.setattr(DirCache, "put", put_then_invalidate)
    f = run(fs, reader.stat("/d/f"))
    assert (1, "d") in nn_b.dir_cache  # transactional resolution keeps it
    assert (1, "d") not in cache._attrs and cache.discarded_fills == 1
    # /d's own children were not invalidated: the result row is imported.
    assert cache._attrs.entry((f.parent_id, "f"))[1] == f and cache.fills == 1
    assert listing_consistency(fs).ok


def test_cache_counters_reach_obs_registry():
    """The registry reads the caches' own plain ints (one count, two views)."""
    from repro.experiments.setups import CHAOS, SETUPS
    from repro.obs import ObsContext, register_deployment_metrics

    harness = SETUPS["HopsFS-CL (3,3)"].build(
        2, tuning=CHAOS, listing_cache=ListingCacheConfig()
    )
    obs = ObsContext().attach(harness.env)
    register_deployment_metrics(obs, harness)
    (client,) = harness.make_clients(1)

    def flow():
        yield from harness.ready()
        yield from client.mkdir("/d")
        yield from client.listdir("/d")
        yield from client.listdir("/d")

    harness.env.run_process(flow(), until=60_000)
    caches = [nn.listing_cache for nn in harness.deployment.namenodes]
    gauges = obs.registry.snapshot()["gauges"]
    for name, attr in (("hit", "hits"), ("miss", "misses"),
                       ("invalidation", "invalidations"), ("flush", "flushes")):
        assert gauges[f"nn.listcache.{name}"] == sum(getattr(c, attr) for c in caches)
    assert gauges["nn.listcache.hit"] >= 1
    assert gauges["nn.listcache.miss"] >= 1
    assert gauges["nn.listcache.invalidation"] >= 1
    assert gauges["nn.dircache.hit"] == sum(
        nn.dir_cache.hits for nn in harness.deployment.namenodes)


def test_restart_flushes_the_read_front():
    fs, client = _warm_fs()
    nn = fs.namenodes[0]

    def flow():
        yield from client.listdir("/d")
        yield from client.listdir("/d")
        assert len(nn.listing_cache) > 0
        nn.shutdown()
        yield fs.env.timeout(5.0)
        nn.restart()

    flushes = nn.listing_cache.flushes
    run(fs, flow())
    assert len(nn.listing_cache) == 0  # flushed on restart
    assert nn.listing_cache.flushes == flushes + 1


def test_prewarm_materializes_snapshot_and_stays_stream_fresh():
    fs, client = _warm_fs()
    fs.prewarm_listing_caches()
    nn = fs.namenodes[0]
    assert len(nn.listing_cache._attrs) == 2  # /d and /d/f
    out = {}

    def flow():
        out["list"] = yield from client.listdir("/d")  # served prewarmed
        yield from client.create("/d/g", data=b"")  # changelog pops /d
        yield fs.env.timeout(50.0)
        out["after"] = yield from client.listdir("/d")

    run(fs, flow())
    assert out["list"] == ["f"]
    assert out["after"] == ["f", "g"]
    assert sum(nn.listing_cache.hits for nn in fs.namenodes) >= 1
    from repro.chaos.invariants import listing_consistency

    assert listing_consistency(fs).ok


def _all_replica_inodes(fs):
    """The snapshot's rows as prewarm used to read them: every running
    datanode's store, first copy of each pk kept, in pk order."""
    rows = {}
    for dn in fs.ndb.datanodes.values():
        if dn.running:
            for pk, row in dn.store.iter_rows("inodes"):
                rows.setdefault(pk, row)
    return [rows[pk] for pk in sorted(rows)]


def test_committed_inodes_reads_one_replica_per_node_group_as_all_replicas_did():
    harness = SETUPS["HopsFS-CL (3,3)"].build(2, seed=5, listing_cache=ListingCacheConfig())
    fs, env = harness.deployment, harness.env
    harness.install(generate_namespace(num_top_dirs=2, dirs_per_top=3, files_per_dir=3, seed=5))
    assert len(fs.committed_inodes()) > 20
    assert fs.committed_inodes() == _all_replica_inodes(fs)
    env.run_process(harness.ready(), until=env.now + 60_000)
    (client,) = harness.make_clients(1)

    def mutate(tag):
        yield from client.mkdir(f"/new-{tag}")
        yield from client.create(f"/new-{tag}/f", data=b"x")
        yield from client.rename(f"/new-{tag}/f", f"/new-{tag}/g")
        yield from client.delete(f"/new-{tag}/g")

    env.run_process(mutate(0), until=env.now + 60_000)
    assert fs.committed_inodes() == _all_replica_inodes(fs)
    paths = {(row.parent_id, row.name) for row in fs.committed_inodes()}
    new_dir = next(row for row in fs.committed_inodes() if row.name == "new-0")
    assert (new_dir.id, "g") not in paths and (new_dir.id, "f") not in paths
    victim = next(iter(fs.ndb.datanodes))
    fs.ndb.crash_datanode(victim, detect_now=True)
    assert fs.committed_inodes() == _all_replica_inodes(fs)
    env.run_process(mutate(1), until=env.now + 60_000)
    assert fs.committed_inodes() == _all_replica_inodes(fs)
    assert any(row.name == "new-1" for row in fs.committed_inodes())


def test_prewarm_refuses_oversized_snapshot():
    small, _clock = _cache(max_attr_entries=1)
    rows = [_row(2, 1, "d", is_dir=True), _row(3, 2, "f")]
    small.prewarm(lambda: materialize_snapshot(rows, now=0.0))
    # A partial materialization could wrongly prove absence; refuse instead.
    assert len(small) == 0


def _prewarm_per_nn(cache, rows):
    """``ListingCache.prewarm`` as it was: every NN rebuilt the entries."""
    from repro.hopsfs.metadata import ROOT_INODE_ID

    rows = [row for row in rows if row.id != ROOT_INODE_ID]
    dir_ids = {row.id for row in rows if row.is_dir} | {ROOT_INODE_ID}
    if (
        len(rows) > cache._attrs.max_entries
        or len(dir_ids) > cache._listings.max_entries
    ):
        return
    now = cache._attrs._clock.now
    children = {dir_id: [] for dir_id in dir_ids}
    for row in rows:
        cache._attrs[(row.parent_id, row.name)] = (now, row)
        if row.parent_id in children:
            children[row.parent_id].append(row.name)
    for dir_id, names in children.items():
        ordered = tuple(sorted(names))
        cache._listings[dir_id] = (now, (ordered, frozenset(ordered)))
    cache.fills += len(rows) + len(children)


def _snapshot_rows():
    from repro.hopsfs.pathlock import root_row

    rows = [root_row()]
    next_id = 2
    for d in range(5):
        dir_id = next_id
        rows.append(_row(dir_id, 1, f"d{d}", is_dir=True))
        next_id += 1
        for f in range(4 - d):  # d4 is an empty directory
            rows.append(_row(next_id, dir_id, f"f{f}"))
            next_id += 1
    return sorted(rows, key=lambda row: row.pk)


def _cache_state(cache):
    return list(cache._attrs.items()), list(cache._listings.items()), cache.fills


@pytest.mark.parametrize(
    "caps, fits",
    [
        ({}, True),
        ({"max_attr_entries": 15, "max_listing_entries": 6}, True),
        ({"max_attr_entries": 14}, False),
        ({"max_listing_entries": 5}, False),
    ],
)
def test_shared_snapshot_fills_each_cache_as_its_own_prewarm_did(caps, fits):
    rows = _snapshot_rows()  # 15 attr entries, 5 directories + the root
    # An entry that is there already keeps its place in the LRU order.
    stale = (0.0, _row(99, 1, "d3", is_dir=True))
    reference, clock = _cache(**caps)
    clock.now = 7.5
    reference._attrs[(1, "d3")] = stale
    _prewarm_per_nn(reference, rows)
    assert len(reference) == (21 if fits else 1)

    attrs, listings = materialize_snapshot(rows, now=7.5)
    for _nn in range(6):
        cache, _clock = _cache(**caps)
        cache._attrs[(1, "d3")] = stale
        cache.prewarm(lambda: (attrs, listings))
        assert _cache_state(cache) == _cache_state(reference)


def test_invalidation_on_one_cache_leaves_the_shared_snapshot_alone():
    rows = _snapshot_rows()
    attrs, listings = materialize_snapshot(rows, now=0.0)
    caches = [_cache()[0] for _ in range(6)]
    for cache in caches:
        cache.prewarm(lambda: (attrs, listings))
    untouched = _cache_state(caches[1])
    first = caches[0]
    first.apply(_batch(_delete(2, "f0")))
    first.apply(_batch(_delete(7, "f1")))
    first.fill_attr(first.begin_fill(), _row(50, 2, "new"))
    assert first.resolve("/d0/f0") == (False, None)
    assert (2, "f0") in attrs and 2 in listings  # the snapshot itself is intact
    for cache in caches[1:]:
        assert _cache_state(cache) == untouched
        assert cache.resolve("/d0/f0")[1].id == 3
        assert cache.listing(2) == ["f0", "f1", "f2", "f3"]
    first.flush()
    assert len(first) == 0 and len(attrs) == 15 and len(listings) == 6
    assert all(_cache_state(cache) == untouched for cache in caches[1:])


def test_cache_off_publishes_nothing():
    fs = make_fs(num_namenodes=2)
    client = fs.client()

    def flow():
        yield from fs.await_election()
        yield from client.mkdir("/d")
        yield from client.create("/d/f", data=b"x")
        yield from client.listdir("/d")

    run(fs, flow())
    # Zero subscribers: the bus never sends anything, so the legacy event
    # schedule is untouched (the pinned goldens prove the stronger
    # bit-identical claim).
    assert fs.ndb.changelog.published == 0
    assert all(nn.listing_cache is NO_LISTING_CACHE for nn in fs.namenodes)
    assert listing_consistency(fs).detail == "n/a (listing cache off)"
