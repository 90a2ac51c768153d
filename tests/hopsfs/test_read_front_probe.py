"""A read-front hit is resolved once: probed before the handler pool, its
witness checked after it.

* A reference test: whatever happens to the listing cache, the dir cache
  and the clock between the probe and ``serve``, the checked probe answers
  exactly as a second full walk would (the answer, the hit/miss counters
  and the contents of all three maps).
* The namenode's callback chain end to end: an invalidation landing while
  the probed op waits for the pool sends it transactional without a second
  pool job; a hit whose deadline passes in the queue fails, one caught by a
  shutdown is dropped, and neither leaves an admission slot behind.  Nor
  does a miss or a probed hit whose pool job ends after the NN restarted:
  the request belonged to the life the crash ended.
"""

import copy
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlineExceededError, FileNotFoundFsError, HostUnreachableError
from repro.hopsfs.dircache import DirCache
from repro.hopsfs.listcache import ListingCache, ListingCacheConfig
from repro.hopsfs.metadata import INODES_TABLE, InodeRow
from repro.ndb.changelog import ChangelogBatch
from repro.ndb.schema import TOMBSTONE
from repro.types import OpType

from .conftest import make_fs, run

# /a (2) holds the small file f (4) and the directory s (5), which holds g
# (6); /b (3) holds h (7).
ROWS = [
    InodeRow(id=2, parent_id=1, name="a", is_dir=True),
    InodeRow(id=3, parent_id=1, name="b", is_dir=True),
    InodeRow(id=4, parent_id=2, name="f", is_dir=False, small_data=b"f"),
    InodeRow(id=5, parent_id=2, name="s", is_dir=True),
    InodeRow(id=6, parent_id=5, name="g", is_dir=False, small_data=b"g"),
    InodeRow(id=7, parent_id=3, name="h", is_dir=False),
]
DIRS = [row for row in ROWS if row.is_dir]
LISTINGS = {1: ["a", "b"], 2: ["f", "s"], 3: ["h"], 5: ["g"]}
PATHS = ["/a", "/b", "/a/f", "/a/s", "/a/s/g", "/b/h", "/a/nope", "/a/s/nope", "/b/h/x"]
# The (op, path) pairs a warm cache answers from memory.
HITS = [
    *[(OpType.STAT, path) for path in PATHS[:6]],
    *[(OpType.EXISTS, path) for path in PATHS[:8]],
    (OpType.READ_FILE, "/a/f"), (OpType.READ_FILE, "/a/s/g"),
    *[(OpType.LIST_DIR, path) for path in ("/", "/a", "/b", "/a/s")],
]
TTLS = [20.0, 100.0, 300.0]


class _Committer:
    """A commit part whose pending batches hold every path, or none."""

    held = False

    def holds(self, op, kwargs):
        return self.held


def _build(attr_ttl, listing_ttl, dir_ttl, attr_cap):
    clock = SimpleNamespace(now=0.0)
    dir_cache = DirCache(clock, ttl_ms=dir_ttl)
    cache = ListingCache(clock, dir_cache=dir_cache, committer=_Committer())
    cache._attrs.ttl_ms = attr_ttl
    cache._attrs.max_entries = attr_cap
    cache._listings.ttl_ms = listing_ttl
    return cache, clock


def _state(cache):
    """Everything a walk reads or leaves behind, in map order."""
    return (cache.hits, cache.misses, list(cache._attrs.items()),
            list(cache._listings.items()), list(cache.dir_cache.items()))


def _apply(cache, clock, stale_token, step):
    kind, arg = step
    if kind == "fill_attr":
        row, stale = arg
        cache.fill_attr(stale_token if stale else cache.begin_fill(), row)
    elif kind == "fill_listing":
        dir_id, stale = arg
        cache.fill_listing(stale_token if stale else cache.begin_fill(),
                           dir_id, LISTINGS[dir_id])
    elif kind == "apply":
        row, deleted = arg
        value = TOMBSTONE if deleted else row
        cache.apply(ChangelogBatch(((INODES_TABLE, row.pk, row.parent_id, value),)))
    elif kind == "flush":
        cache.flush()
    elif kind == "dc_put":
        cache.dir_cache.put(arg)
    elif kind == "dc_pop":
        cache.dir_cache.pop(arg.pk, None)
    elif kind == "dc_clear":
        cache.dir_cache.clear()
    elif kind == "advance":
        clock.now += arg
    else:
        cache.committer.held = arg


_steps = st.one_of(
    st.tuples(st.just("fill_attr"), st.tuples(st.sampled_from(ROWS), st.booleans())),
    st.tuples(st.just("fill_listing"), st.tuples(st.sampled_from(sorted(LISTINGS)), st.booleans())),
    st.tuples(st.just("apply"), st.tuples(st.sampled_from(ROWS), st.booleans())),
    st.tuples(st.just("flush"), st.none()),
    st.tuples(st.just("dc_put"), st.sampled_from(DIRS)),
    st.tuples(st.just("dc_pop"), st.sampled_from(DIRS)),
    st.tuples(st.just("dc_clear"), st.none()),
    st.tuples(st.just("advance"), st.sampled_from([1.0, 15.0, 60.0, 150.0, 400.0])),
    st.tuples(st.just("hold"), st.booleans()),
)


@settings(max_examples=500, deadline=None)
@given(
    ttls=st.tuples(*[st.sampled_from(TTLS)] * 3),
    attr_cap=st.sampled_from([3, 100]),
    # Mostly warm, so that most probes hit.
    filled=st.lists(st.sampled_from([True, True, True, True, False]),
                    min_size=len(ROWS) + len(LISTINGS) + len(DIRS),
                    max_size=len(ROWS) + len(LISTINGS) + len(DIRS)),
    before=st.lists(_steps, max_size=2),
    probed=st.sampled_from(HITS),
    between=st.lists(_steps, max_size=6),
    # The pool wait itself, across one TTL or more.
    wait=st.sampled_from([0.0, 15.0, 60.0, 150.0, 400.0]),
)
def test_a_checked_probe_answers_as_a_second_walk(ttls, attr_cap, filled, before, probed,
                                                  between, wait):
    cache, clock = _build(*ttls, attr_cap)
    token = cache.begin_fill()
    marks = iter(filled)
    for row in ROWS:
        if next(marks):
            cache.fill_attr(token, row)
    for dir_id, names in LISTINGS.items():
        if next(marks):
            cache.fill_listing(token, dir_id, names)
    for row in DIRS:
        if next(marks):
            cache.dir_cache.put(row)
    for step in before:
        _apply(cache, clock, token, step)
    op, path = probed
    kwargs = {"path": path}
    stale_token = cache.begin_fill()
    probe = cache.lookup(op, kwargs)
    if probe is None:
        return  # a miss is never served from memory
    for step in between:
        _apply(cache, clock, stale_token, step)
    clock.now += wait
    # The reference is the full second walk: a fresh probe, counted a hit.
    reference = copy.deepcopy(cache)
    expected = reference.lookup(op, kwargs)
    if expected is not None:
        reference.hits += 1
    served = cache.serve(op, kwargs, probe)
    assert (served is None) == (expected is None)
    if served is not None:
        assert served[0] == expected[0]
    assert _state(cache) == _state(reference)


# ------------------------------------------------------------- the NN chain
def _cached_file():
    """``/d/f`` created through NN B; NN A has served one STAT of it, so its
    read front holds the path and the next probe of it hits."""
    fs = make_fs(num_namenodes=2, listing_cache=ListingCacheConfig())
    nn_a, nn_b = fs.namenodes
    reader, writer = fs.client(), fs.client()

    def setup():
        yield from fs.await_election()
        writer.current_nn = nn_b.addr
        yield from writer.mkdir("/d")
        yield from writer.create("/d/f", data=b"x")
        reader.current_nn = nn_a.addr
        yield from reader.stat("/d/f")

    run(fs, setup())
    assert nn_a.listing_cache.lookup(OpType.STAT, {"path": "/d/f"}) is not None
    return fs, nn_a, reader, writer


def _saturate(nn, hold_ms):
    """Occupy every handler core of ``nn`` for ``hold_ms``; returns the
    pool's ``jobs_done`` those jobs will add."""
    for _ in range(nn.handler_pool.cores):
        nn.handler_pool.submit(hold_ms)
    return nn.handler_pool.cores


def test_an_invalidation_during_the_pool_wait_sends_the_hit_transactional():
    fs, nn_a, reader, writer = _cached_file()
    cache, pool = nn_a.listing_cache, nn_a.handler_pool
    hits, misses, jobs = cache.hits, cache.misses, pool.jobs_done
    fillers = _saturate(nn_a, 50.0)
    out = {}

    def stat():
        try:
            out["stat"] = yield from reader.stat("/d/f")
        except FileNotFoundFsError as exc:
            out["stat"] = exc
        out["pool_free_at"] = fs.env.now

    def rename():
        yield fs.env.timeout(1.0)  # the STAT is probed and queued by now
        assert nn_a.handler_pool.queue_length == 1
        assert cache.misses == misses  # the probe was a hit
        yield from writer.rename("/d/f", "/d/g")
        out["renamed_at"] = fs.env.now

    fs.env.process(rename())
    run(fs, stat())
    # The rename committed, and its changelog reached A, inside the wait.
    assert out["renamed_at"] < out["pool_free_at"]
    assert isinstance(out["stat"], FileNotFoundFsError)  # fresh, not the cached row
    assert (cache.hits, cache.misses) == (hits, misses + 1)
    assert pool.jobs_done - jobs == fillers + 1  # the pool was paid once
    assert nn_a.inflight == 0


def _send_stat(fs, nn, extra=None):
    """A bare STAT request to ``nn`` (no client retries); its reply event."""
    return fs.network.call(fs.client().addr, nn.addr, "fs_op",
                           (OpType.STAT, {"path": "/d/f"}), extra=extra)


def test_a_hit_whose_deadline_passes_in_the_queue_fails():
    fs, nn_a, _reader, _writer = _cached_file()
    cache = nn_a.listing_cache
    counts = (cache.hits, cache.misses)
    failed = nn_a.ops_failed
    _saturate(nn_a, 20.0)

    def stat():
        yield _send_stat(fs, nn_a, extra={"deadline_ms": fs.env.now + 5.0})

    with pytest.raises(DeadlineExceededError):
        run(fs, stat())
    # Probed as a hit, never served: the deadline check comes first.
    assert (cache.hits, cache.misses) == counts
    assert nn_a.ops_failed == failed + 1
    assert nn_a.inflight == 0


def test_a_hit_caught_by_a_shutdown_is_dropped():
    fs, nn_a, _reader, _writer = _cached_file()
    cache = nn_a.listing_cache
    counts = (cache.hits, cache.misses, nn_a.ops_served, nn_a.ops_failed)
    jobs = nn_a.handler_pool.jobs_done + _saturate(nn_a, 20.0)
    reply = _send_stat(fs, nn_a)
    reply.defuse()
    fs.env.run(until=fs.env.now + 1.0)
    assert nn_a.inflight == 1 and nn_a.handler_pool.queue_length == 1
    nn_a.shutdown()
    fs.env.run(until=fs.env.now + 40.0)
    assert nn_a.handler_pool.jobs_done == jobs + 1  # the op's job ran ...
    assert (cache.hits, cache.misses, nn_a.ops_served, nn_a.ops_failed) == counts
    assert isinstance(reply.value, HostUnreachableError)  # ... and nobody was answered
    assert nn_a.inflight == 0


def _served_after_a_restart(monkeypatch, op, path, extra=None):
    """Queue a bare ``op`` on ``path`` behind NN A's saturated pool, crash A
    and restart it 1 ms later, before the job ends.  Returns what the run
    did: the fs-op transactions A opened (hinted by the inodes table; the
    leader election's are not), A's counters and the shared ledger before
    and after, and the reply."""
    fs, nn_a, reader, _writer = _cached_file()
    opened = []
    real_transaction = nn_a.api.transaction

    def transaction(hint_table=None, hint_key=None):
        if hint_table == INODES_TABLE:
            opened.append(hint_key)
        return real_transaction(hint_table, hint_key)

    monkeypatch.setattr(nn_a.api, "transaction", transaction)
    before = (nn_a.ops_served, nn_a.ops_failed, list(fs.mutation_ledger))
    jobs = nn_a.handler_pool.jobs_done + _saturate(nn_a, 20.0)
    reply = fs.network.call(fs.client().addr, nn_a.addr, "fs_op", (op, {"path": path}),
                            extra=extra)
    reply.defuse()
    fs.env.run(until=fs.env.now + 1.0)
    assert nn_a.inflight == 1 and nn_a.handler_pool.queue_length == 1
    nn_a.shutdown()
    fs.env.run(until=fs.env.now + 1.0)
    nn_a.restart()
    fs.env.run(until=fs.env.now + 40.0)
    assert nn_a.handler_pool.jobs_done == jobs + 1  # the op's job ran, on the new life
    after = (nn_a.ops_served, nn_a.ops_failed, list(fs.mutation_ledger))
    return fs, nn_a, reader, opened, before, after, reply


def test_a_miss_admitted_before_a_restart_is_dropped(monkeypatch):
    fs, nn_a, reader, opened, before, after, reply = _served_after_a_restart(
        monkeypatch, OpType.MKDIR, "/d/z", extra={"retry_id": (777, 1)})
    assert opened == []  # no NDB transaction ran
    assert after == before  # nothing served, failed or applied
    assert isinstance(reply.value, HostUnreachableError)
    assert nn_a.inflight == 0
    with pytest.raises(FileNotFoundFsError):
        run(fs, reader.stat("/d/z"))  # never created


def test_a_probed_hit_admitted_before_a_restart_is_dropped(monkeypatch):
    fs, nn_a, reader, opened, before, after, reply = _served_after_a_restart(
        monkeypatch, OpType.STAT, "/d/f")
    assert opened == []
    assert after == before
    assert isinstance(reply.value, HostUnreachableError)
    assert nn_a.inflight == 0
