"""Edge cases of the FS operations: mkdirs, rename trees, lock interplay."""

import pytest

from repro.errors import (
    FileAlreadyExistsError,
    FileNotFoundFsError,
    FsError,
    InvalidPathError,
    NotDirectoryError,
)
from repro.types import OpType

from .conftest import make_fs, run


def test_delete_root_rejected(fs, client):
    def scenario():
        with pytest.raises(InvalidPathError):
            yield from client.delete("/")
        return True

    assert run(fs, scenario())


def test_rename_onto_itself_rejected(fs, client):
    def scenario():
        yield from client.create("/f")
        with pytest.raises(InvalidPathError):
            yield from client.rename("/f", "/f")
        return True

    assert run(fs, scenario())


def test_rename_into_missing_dir_fails(fs, client):
    def scenario():
        yield from client.create("/f")
        with pytest.raises(FileNotFoundFsError):
            yield from client.rename("/f", "/missing/f")
        return True

    assert run(fs, scenario())


def test_rename_deep_directory_is_o1():
    """Renaming a directory does not touch its descendants' rows."""
    fs = make_fs()
    client = fs.client()

    def scenario():
        yield from client.mkdir("/big")
        for i in range(20):
            yield from client.create(f"/big/f{i}")
        # Count committed rows before/after: only 2 row writes (del+ins).
        before = sum(dn.store.row_count("inodes") for dn in fs.ndb.datanodes.values())
        yield from client.rename("/big", "/bigger")
        after = sum(dn.store.row_count("inodes") for dn in fs.ndb.datanodes.values())
        names = yield from client.listdir("/bigger")
        return before, after, len(names)

    before, after, n = run(fs, scenario())
    assert n == 20
    assert before == after  # delete+insert of one inode, no child churn


def test_listdir_of_file_fails(fs, client):
    def scenario():
        yield from client.create("/f")
        with pytest.raises(NotDirectoryError):
            yield from client.listdir("/f")
        return True

    assert run(fs, scenario())


def test_stat_missing_intermediate(fs, client):
    def scenario():
        yield from client.mkdir("/a")
        with pytest.raises(FileNotFoundFsError):
            yield from client.stat("/a/b/c")
        return True

    assert run(fs, scenario())


def test_exists_through_file_component(fs, client):
    def scenario():
        yield from client.create("/f")
        result = yield from client.exists("/f/sub")
        return result

    # walking through a file yields "does not exist", not an error
    assert run(fs, scenario()) is False


def test_create_delete_create_same_name(fs, client):
    def scenario():
        yield from client.create("/cycle", data=b"v1")
        yield from client.delete("/cycle")
        yield from client.create("/cycle", data=b"v2")
        content = yield from client.read("/cycle")
        return content.small_data

    assert run(fs, scenario()) == b"v2"


def test_concurrent_delete_and_read_race():
    """A read racing a delete either sees the file or not-found — no crash."""
    fs = make_fs()
    writer, reader = fs.client(), fs.client()
    outcomes = []

    def deleter():
        yield from writer.delete("/victim")

    def racer():
        try:
            content = yield from reader.read("/victim")
            outcomes.append(("read", content.small_data))
        except FileNotFoundFsError:
            outcomes.append(("gone", None))

    def scenario():
        yield from writer.create("/victim", data=b"x")
        p1 = fs.env.process(deleter())
        p2 = fs.env.process(racer())
        yield p1
        yield p2
        return outcomes

    result = run(fs, scenario())
    assert len(result) == 1
    assert result[0][0] in ("read", "gone")


def test_mkdirs_creates_ancestors():
    fs = make_fs()
    client = fs.client()
    from repro.hopsfs import ops as fsops
    from repro.ndb.client import run_transaction

    nn = fs.namenodes[0]

    def scenario():
        yield from fs.await_election()

        def body(txn):
            result = yield from fsops.mkdirs(nn.ctx, txn, "/x/y/z")
            return result

        yield from run_transaction(nn.api, body)
        a = yield from client.exists("/x")
        b = yield from client.exists("/x/y")
        c = yield from client.exists("/x/y/z")
        return a, b, c

    assert run(fs, scenario()) == (True, True, True)


def test_mkdirs_through_file_fails():
    fs = make_fs()
    client = fs.client()
    from repro.hopsfs import ops as fsops
    from repro.ndb.client import run_transaction

    nn = fs.namenodes[0]

    def scenario():
        yield from client.create("/file")

        def body(txn):
            result = yield from fsops.mkdirs(nn.ctx, txn, "/file/sub")
            return result

        with pytest.raises(NotDirectoryError):
            yield from run_transaction(nn.api, body)
        return True

    assert run(fs, scenario())


def test_chmod_missing_file(fs, client):
    def scenario():
        with pytest.raises(FileNotFoundFsError):
            yield from client.chmod("/ghost", 0o600)
        return True

    assert run(fs, scenario())


def test_set_replication_on_directory_fails(fs, client):
    def scenario():
        yield from client.mkdir("/d")
        with pytest.raises(FsError):
            yield from client.set_replication("/d", 2)
        return True

    assert run(fs, scenario())


def test_set_replication_invalid_value(fs, client):
    def scenario():
        yield from client.create("/f")
        with pytest.raises(FsError):
            yield from client.set_replication("/f", 0)
        return True

    assert run(fs, scenario())


def test_rename_dir_under_itself_rejected(fs, client):
    """Deep self-moves would cut a cycle out of the namespace."""

    def scenario():
        yield from client.mkdir("/a")
        yield from client.mkdir("/a/b")
        with pytest.raises(InvalidPathError):
            yield from client.rename("/a", "/a/b/c")
        with pytest.raises(InvalidPathError):
            yield from client.rename("/a", "/a/c")
        # both directories still intact
        listing = yield from client.listdir("/a")
        return listing

    assert run(fs, scenario()) == ["b"]


def test_split_path_errors_match_the_per_component_check():
    """split_path pre-scans the whole string before validating components;
    the outcome must be that of checking every component in order."""
    from repro.hopsfs.pathlock import split_path

    def reference(path):
        components = [c for c in path.split("/") if c]
        for component in components:
            if component in (".", ".."):
                raise InvalidPathError(f"'.'/'..' not supported: {path!r}")
            if "\x00" in component:
                raise InvalidPathError(f"NUL byte in path component: {path!r}")
        return components

    cases = [
        "/", "//", "/a", "/a/b/", "/a//b", "/.hidden", "/a/.hidden/b", "/a/..b", "/a/b.",
        "/a/b..", "/...", "/.", "/..", "/a/.", "/a/..", "/./a", "/../a", "/a/./b", "/a/../b",
        "/a\x00", "/a/\x00/b", "/a\x00/..", "/../a\x00", "/.\x00", "/a/.\x00./b",
    ]
    for path in cases:
        try:
            want = reference(path)
        except InvalidPathError as exc:
            with pytest.raises(InvalidPathError) as caught:
                split_path(path)
            assert str(caught.value) == str(exc)
        else:
            got = split_path(path)
            assert got == want and type(got) is list
    for bad in ("", "a/b", "./a", None, 7, ["/a"]):
        with pytest.raises(InvalidPathError, match="absolute"):
            split_path(bad)
