"""AZ-aware block reads: data fetched from the client's AZ when possible."""

import pytest

from repro.hopsfs import SMALL_FILE_MAX_BYTES

from .conftest import make_fs, run

_SIZE = SMALL_FILE_MAX_BYTES + 512


def _fs(az_aware):
    return make_fs(
        num_namenodes=3,
        azs=(1, 2, 3),
        az_aware=az_aware,
        num_ndb_datanodes=6,
        ndb_replication=3,
        num_block_datanodes=6,
        election_period_ms=20.0,
    )


def test_read_data_small_file():
    fs = _fs(True)
    client = fs.client(az=1)

    def scenario():
        yield from fs.await_election()
        yield from client.create("/small", data=b"x" * 100)
        nbytes = yield from client.read_data("/small")
        return nbytes

    assert run(fs, scenario()) == 100


def test_read_data_large_file_returns_size():
    fs = _fs(True)
    client = fs.client(az=2)

    def scenario():
        yield from fs.await_election()
        yield fs.env.timeout(60)
        yield from client.create("/big", data=b"x" * _SIZE)
        nbytes = yield from client.read_data("/big")
        return nbytes

    assert run(fs, scenario()) == _SIZE


def test_az_aware_block_reads_stay_local():
    """With AZ-aware placement one replica is always in the reader's AZ,
    so the block bytes never cross an AZ boundary."""
    fs = _fs(True)
    client = fs.client(az=3)

    def scenario():
        yield from fs.await_election()
        yield fs.env.timeout(60)
        yield from client.create("/big", data=b"x" * _SIZE)
        snap = fs.network.traffic
        for _ in range(3):
            yield from client.read_data("/big")
        delta = fs.network.traffic.delta_since(snap)
        return delta.cross_az_bytes

    cross = run(fs, scenario())
    # only small control messages may cross; the block payloads must not
    assert cross < _SIZE


def test_block_reads_survive_local_replica_loss():
    fs = _fs(True)
    client = fs.client(az=1)

    def scenario():
        yield from fs.await_election()
        yield fs.env.timeout(60)
        yield from client.create("/big", data=b"x" * _SIZE)
        content = yield from client.read("/big")
        local = [
            dn for dn in content.blocks[0].locations
            if fs.topology.az_of(dn) == 1
        ]
        for addr in local:
            victim = next(d for d in fs.block_datanodes if d.addr == addr)
            victim.shutdown()
        nbytes = yield from client.read_data("/big")  # falls back cross-AZ
        return nbytes

    assert run(fs, scenario()) == _SIZE
