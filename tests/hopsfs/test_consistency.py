"""Cross-client consistency guarantees the paper claims (Section I/II)."""

import pytest

from repro.errors import FileNotFoundFsError
from repro.hopsfs import ListingCacheConfig

from .conftest import make_fs, run


def _cl_fs():
    return make_fs(
        num_namenodes=3,
        azs=(1, 2, 3),
        az_aware=True,
        num_ndb_datanodes=6,
        ndb_replication=3,
    )


def test_read_after_create_across_azs():
    """Strongly consistent read-after-update — what S3 (2019) lacked.

    With Read Backup, the commit ACK waits for all replicas, so a reader
    in ANY AZ sees the new file immediately, even though it reads its own
    AZ-local replica.
    """
    fs = _cl_fs()
    writer = fs.client(az=1)
    readers = [fs.client(az=az) for az in (1, 2, 3)]

    def scenario():
        yield from fs.await_election()
        yield from writer.create("/fresh", data=b"v1")
        results = []
        for reader in readers:
            content = yield from reader.read("/fresh")
            results.append(content.small_data)
        return results

    assert run(fs, scenario()) == [b"v1", b"v1", b"v1"]


def test_consistent_listing_after_create():
    """Consistent directory listings — object stores list eventually."""
    fs = _cl_fs()
    writer = fs.client(az=2)
    reader = fs.client(az=3)

    def scenario():
        yield from fs.await_election()
        yield from writer.mkdir("/bucket")
        seen = []
        for i in range(5):
            yield from writer.create(f"/bucket/obj{i}")
            listing = yield from reader.listdir("/bucket")
            seen.append(len(listing))
        return seen

    # every listing immediately includes every created object
    assert run(fs, scenario()) == [1, 2, 3, 4, 5]


def test_rename_visibility_is_atomic():
    """Readers see the file at exactly one of the two paths, never both
    and never neither."""
    fs = _cl_fs()
    writer = fs.client(az=1)
    reader = fs.client(az=2)
    observations = []

    def renamer():
        yield from writer.rename("/a", "/b")

    def observer():
        for _ in range(12):
            at_a = yield from reader.exists("/a")
            at_b = yield from reader.exists("/b")
            observations.append((at_a, at_b))

    def scenario():
        yield from fs.await_election()
        yield from writer.create("/a")
        p1 = fs.env.process(renamer())
        p2 = fs.env.process(observer())
        yield p1
        yield p2
        return observations

    results = run(fs, scenario())
    for at_a, at_b in results:
        assert (at_a, at_b) in ((True, False), (False, True)), results


def test_delete_then_read_raises_everywhere():
    fs = _cl_fs()
    writer = fs.client(az=1)
    readers = [fs.client(az=az) for az in (1, 2, 3)]

    def scenario():
        yield from fs.await_election()
        yield from writer.create("/gone", data=b"x")
        yield from writer.delete("/gone")
        for reader in readers:
            with pytest.raises(FileNotFoundFsError):
                yield from reader.read("/gone")
        return True

    assert run(fs, scenario())


@pytest.mark.parametrize("listing_cache", [
    pytest.param(None, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 15(b): without the changelog, NN B's "
        "dir cache resolves the renamed-away /a for its 5 s TTL")),
    ListingCacheConfig(),
], ids=["default", "listing_cache"])
def test_a_directory_renamed_through_one_nn_is_gone_at_once_through_another(listing_cache):
    """Atomic rename across namenodes: once ``rename /a /b`` is acked through
    NN A, NN B no longer resolves ``/a/f``, though its caches held ``/a``."""
    fs = make_fs(num_namenodes=2, listing_cache=listing_cache)
    nn_a, nn_b = fs.namenodes
    writer, reader = fs.client(), fs.client()
    outcomes = []

    def scenario():
        yield from fs.await_election()
        writer.current_nn, reader.current_nn = nn_a.addr, nn_b.addr
        yield from writer.mkdir("/a")
        yield from writer.create("/a/f", data=b"x")
        yield from reader.stat("/a/f")  # NN B caches /a
        yield from writer.rename("/a", "/b")
        for wait_ms in (0.0, 50.0, 1000.0):
            yield fs.env.timeout(wait_ms)
            try:
                outcomes.append((yield from reader.stat("/a/f")))
            except FileNotFoundFsError as exc:
                outcomes.append(type(exc))

    run(fs, scenario())
    assert outcomes == [FileNotFoundFsError] * 3
