"""Dir-cache behaviour and the small-files-in-NDB path."""

from types import SimpleNamespace

import pytest

from repro.errors import FileNotFoundFsError
from repro.hopsfs import SMALL_FILE_MAX_BYTES, InodeRow
from repro.hopsfs.dircache import DirCache

from .conftest import make_fs, run


def _dir_row(parent_id, name, inode_id=99):
    return InodeRow(id=inode_id, parent_id=parent_id, name=name, is_dir=True)


def test_dircache_put_get_invalidate():
    cache = DirCache(SimpleNamespace(now=0.0), ttl_ms=100)
    row = _dir_row(1, "d")
    cache.put(row)
    assert cache.lookup((1, "d")) is row
    cache.pop((1, "d"), None)
    assert cache.lookup((1, "d")) is None


def test_dircache_only_caches_directories():
    cache = DirCache(SimpleNamespace(now=0.0))
    cache.put(InodeRow(id=5, parent_id=1, name="f", is_dir=False))
    assert cache.lookup((1, "f")) is None
    assert len(cache) == 0


def test_dircache_ttl_expiry():
    clock = SimpleNamespace(now=0.0)
    cache = DirCache(clock, ttl_ms=100)
    cache.put(_dir_row(1, "d"))
    clock.now = 99
    assert cache.lookup((1, "d")) is not None
    clock.now = 201
    assert cache.lookup((1, "d")) is None
    assert len(cache) == 0  # the lookup that found it expired dropped it


def test_dircache_eviction_on_overflow():
    cache = DirCache(SimpleNamespace(now=0.0), max_entries=4)
    for i in range(5):
        cache.put(_dir_row(1, f"d{i}", inode_id=i + 10))
    # The oldest insertion goes; the newest stays.
    assert len(cache) == 4
    assert (1, "d0") not in cache and (1, "d4") in cache


def test_dircache_hit_miss_counters():
    cache = DirCache(SimpleNamespace(now=0.0))
    cache.put(_dir_row(1, "d"))
    cache.lookup((1, "d"))
    cache.lookup((1, "ghost"))
    assert cache.peek((1, "d")) is not None and cache.peek((1, "ghost")) is None
    assert cache.hits == 1  # peek counts neither
    assert cache.misses == 1


def test_nn_cache_serves_resolution():
    fs = make_fs()
    client = fs.client()

    def scenario():
        yield from client.mkdir("/hot")
        yield from client.create("/hot/f")
        # re-stat several times: ancestors resolve from the NN cache
        caches = [nn.dir_cache for nn in fs.namenodes]
        before = sum(c.hits for c in caches)
        for _ in range(5):
            yield from client.stat("/hot/f")
        after = sum(c.hits for c in caches)
        return after - before

    assert run(fs, scenario()) >= 5


def test_restarted_nn_forgets_its_pre_crash_dir_cache():
    """A crash loses the NN's memory: a directory renamed through a peer while
    it was down must not resolve through the entry cached before the crash."""
    fs = make_fs(num_namenodes=2)
    victim, peer = fs.namenodes
    via_victim, via_peer = fs.client(), fs.client()
    via_victim.namenode_addrs = [victim.addr]
    via_peer.namenode_addrs = [peer.addr]

    def before_crash():
        yield from via_victim.mkdir("/a")
        yield from via_victim.create("/a/f")
        yield from via_victim.stat("/a/f")  # resolves "a" through the dir cache

    run(fs, before_crash())
    a_row = victim.dir_cache.peek((1, "a"))
    assert a_row is not None
    victim.shutdown()
    run(fs, via_peer.rename("/a", "/b"))
    victim.restart()
    assert victim.dir_cache.peek((1, "a")) is None

    def after_restart():
        with pytest.raises(FileNotFoundFsError):
            yield from via_victim.stat("/a/f")
        return (yield from via_victim.stat("/b/f"))

    assert run(fs, after_restart()).parent_id == a_row.id


def test_small_file_exactly_at_threshold():
    fs = make_fs()
    client = fs.client()
    payload = b"x" * SMALL_FILE_MAX_BYTES

    def scenario():
        yield from client.create("/edge", data=payload)
        content = yield from client.read("/edge")
        return content

    content = run(fs, scenario())
    assert content.is_small
    assert len(content.small_data) == SMALL_FILE_MAX_BYTES


def test_small_file_data_survives_ndb_node_failure():
    """Small-file payloads are replicated with the metadata (Sec. IV-C2)."""
    fs = make_fs()
    client = fs.client()

    def scenario():
        yield from client.create("/precious", data=b"payload")
        victim = next(iter(fs.ndb.datanodes))
        fs.ndb.crash_datanode(victim, detect_now=True)
        content = yield from client.read("/precious")
        return content.small_data

    assert run(fs, scenario()) == b"payload"


def test_rename_preserves_small_file_data():
    fs = make_fs()
    client = fs.client()

    def scenario():
        yield from client.create("/a", data=b"keep me")
        yield from client.rename("/a", "/b")
        content = yield from client.read("/b")
        return content.small_data

    assert run(fs, scenario()) == b"keep me"
