"""Extra coverage: metadata row types, id generation, leader edge cases."""

import pytest

from repro.hopsfs import IdGenerator, InodeRow, define_fs_schema
from repro.hopsfs.metadata import BLOCK_SIZE_BYTES, SMALL_FILE_MAX_BYTES, BlockRow

from .conftest import make_fs, run


def test_schema_tables_defined():
    schema = define_fs_schema(read_backup=True)
    for name in ("inodes", "blocks", "leases", "leader"):
        assert name in schema
        assert schema.table(name).read_backup
    vanilla = define_fs_schema(read_backup=False)
    assert not vanilla.table("inodes").read_backup


def test_inode_row_pk_and_with():
    row = InodeRow(id=7, parent_id=3, name="f", is_dir=False)
    assert row.pk == (3, "f")
    changed = row.with_(size=10)
    assert changed.size == 10
    assert row.size == 0  # immutable


def test_block_row_with():
    block = BlockRow(block_id=1, inode_id=2, index=0)
    assert block.with_(size=5).size == 5


def test_id_generator_unique_and_disjoint():
    ids = IdGenerator()
    inodes = {ids.next_inode_id() for _ in range(100)}
    blocks = {ids.next_block_id() for _ in range(100)}
    assert len(inodes) == 100
    assert len(blocks) == 100
    assert not (inodes & blocks)


def test_constants_match_paper():
    assert SMALL_FILE_MAX_BYTES == 128 * 1024  # small files < 128 KB
    assert BLOCK_SIZE_BYTES == 128 * 1024 * 1024  # 128 MB blocks


def test_election_round_counter_advances():
    fs = make_fs(num_namenodes=2, election_period_ms=20.0)

    def scenario():
        yield fs.env.timeout(150)
        return [nn.election.rounds for nn in fs.namenodes]

    rounds = run(fs, scenario())
    assert all(r >= 5 for r in rounds)


def test_leader_survives_ndb_node_failure():
    """Election keeps working when an NDB datanode dies (retry path)."""
    fs = make_fs(num_namenodes=2, election_period_ms=20.0)

    def scenario():
        yield from fs.await_election()
        victim = next(iter(fs.ndb.datanodes))
        fs.ndb.crash_datanode(victim, detect_now=True)
        yield fs.env.timeout(200)
        return [nn.election.leader_id for nn in fs.namenodes]

    leaders = run(fs, scenario())
    assert set(leaders) == {1}


def test_client_location_domain_zero_is_random():
    """locationDomainId 0 disables AZ affinity (Section IV-B3)."""
    fs = make_fs(num_namenodes=4, azs=(1, 2, 3), az_aware=True)
    from repro.hopsfs.client import HopsFsClient
    from repro.types import ANY_AZ, NodeAddress, NodeKind

    addr = NodeAddress(NodeKind.CLIENT, 999)
    fs.topology.add_host(addr, az=2)
    client = HopsFsClient(
        env=fs.env,
        network=fs.network,
        addr=addr,
        namenode_addrs=[nn.addr for nn in fs.namenodes],
        rngs=fs.rng,
        location_domain_id=ANY_AZ,
    )

    def scenario():
        yield from fs.await_election()
        seen = set()
        for _ in range(10):
            client.current_nn = None
            yield from client.exists("/")
            seen.add(client.current_nn)
        return seen

    seen = run(fs, scenario())
    assert len(seen) > 1  # not pinned to the local AZ
