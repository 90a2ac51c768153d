"""Tests for node groups, partition placement and failure promotion."""

import pytest

from repro.errors import ConfigError, NoDatanodesError
from repro.ndb import PartitionMap, stable_hash
from repro.ndb.cluster import az_assignment_for
from repro.types import NodeAddress, NodeKind


def _nodes(n):
    return [NodeAddress(NodeKind.NDB_DATANODE, i) for i in range(1, n + 1)]


def test_node_groups_round_robin():
    """Consecutive node indices land in different groups (Figs 3/4)."""
    pm = PartitionMap(_nodes(6), replication=3, num_partitions=12)
    assert pm.num_groups == 2
    # N1, N3, N5 form one group; N2, N4, N6 the other.
    indices = [[n.index for n in group] for group in pm.node_groups]
    assert indices == [[1, 3, 5], [2, 4, 6]]


def test_replication_must_divide_node_count():
    with pytest.raises(ConfigError):
        PartitionMap(_nodes(5), replication=2, num_partitions=4)


def test_replicas_have_distinct_nodes_and_expected_count():
    pm = PartitionMap(_nodes(12), replication=2, num_partitions=48)
    for partition in range(48):
        rs = pm.replicas(partition)
        assert len(set(rs.all)) == 2
        group = pm.node_groups[pm.group_of(partition)]
        assert set(rs.all) <= set(group)


def test_primary_rotates_within_group():
    pm = PartitionMap(_nodes(4), replication=2, num_partitions=8)
    # partitions 0 and 2 are both in group 0 but with different primaries
    primaries = {pm.replicas(p).primary for p in range(0, 8, pm.num_groups)}
    assert len(primaries) == 2


def test_partition_of_is_stable():
    pm = PartitionMap(_nodes(4), replication=2, num_partitions=16)
    assert pm.partition_of(("inodes", 42)) == pm.partition_of(("inodes", 42))
    assert stable_hash("abc") == stable_hash("abc")


def test_stable_hash_lives_in_a_neutral_module():
    """CephFS subtree placement must not import the NDB package for it;
    the long-standing ``repro.ndb`` import path stays, values unchanged."""
    import repro.cephfs.subtree as subtree
    import repro.hashing
    import repro.ndb.partitioning

    assert stable_hash is repro.hashing.stable_hash
    assert repro.ndb.partitioning.stable_hash is repro.hashing.stable_hash
    assert subtree.stable_hash is repro.hashing.stable_hash
    assert stable_hash.__module__ == "repro.hashing"
    assert stable_hash("abc") == 2530215470
    assert stable_hash(("/a/b", 7)) == 3026473102


def test_failure_promotes_backup_to_primary():
    pm = PartitionMap(_nodes(4), replication=2, num_partitions=8)
    partition = 0
    before = pm.replicas(partition)
    pm.mark_down(before.primary)
    after = pm.replicas(partition)
    assert after.primary == before.backups[0]
    assert before.primary not in after.all


def test_whole_group_down_raises():
    pm = PartitionMap(_nodes(4), replication=2, num_partitions=8)
    group = pm.node_groups[0]
    for node in group:
        pm.mark_down(node)
    assert not pm.cluster_viable()
    partition = next(p for p in range(8) if pm.group_of(p) == 0)
    with pytest.raises(NoDatanodesError):
        pm.replicas(partition)


def test_recovery_restores_membership():
    pm = PartitionMap(_nodes(4), replication=2, num_partitions=8)
    node = pm.replicas(0).primary
    pm.mark_down(node)
    pm.mark_up(node)
    assert node in pm.replicas(0).all
    assert pm.cluster_viable()


def test_live_datanodes_tracks_liveness_changes():
    """The cached live list is rebuilt on every mark_down/mark_up."""
    nodes = _nodes(6)
    pm = PartitionMap(nodes, replication=3, num_partitions=6)
    assert pm.live_datanodes() == nodes
    assert pm.live_datanodes() is pm.live_datanodes()  # served from the cache
    pm.mark_down(nodes[1])
    pm.mark_down(nodes[4])
    assert pm.live_datanodes() == [nodes[0], nodes[2], nodes[3], nodes[5]]
    pm.mark_up(nodes[4])
    assert pm.live_datanodes() == [nodes[0], nodes[2], nodes[3], nodes[4], nodes[5]]
    pm.mark_up(nodes[1])
    assert pm.live_datanodes() == nodes


def test_fully_replicated_chain_covers_all_live_nodes():
    pm = PartitionMap(_nodes(6), replication=3, num_partitions=6)
    rs = pm.replicas(0, fully_replicated=True)
    assert set(rs.all) == set(_nodes(6))
    pm.mark_down(_nodes(6)[0])
    rs = pm.replicas(0, fully_replicated=True)
    assert len(rs.all) == 5


def test_role_of():
    pm = PartitionMap(_nodes(6), replication=3, num_partitions=6)
    rs = pm.replicas(3)
    assert rs.role_of(rs.primary) == 0
    assert rs.role_of(rs.backups[0]) == 1
    assert rs.role_of(rs.backups[1]) == 2
    outsider = [n for n in _nodes(6) if n not in rs.all][0]
    assert rs.role_of(outsider) is None


def test_az_assignment_spans_groups_across_azs():
    """Every node group must have at most one member per AZ."""
    for n, r in ((12, 2), (12, 3), (6, 3)):
        azs = list(range(1, r + 1))
        assignment = az_assignment_for(n, r, azs)
        pm = PartitionMap(_nodes(n), replication=r, num_partitions=n)
        by_addr = dict(zip(_nodes(n), assignment))
        for group in pm.node_groups:
            group_azs = [by_addr[m] for m in group]
            assert len(set(group_azs)) == len(group_azs)


def test_az_assignment_single_az():
    assignment = az_assignment_for(12, 2, [2])
    assert set(assignment) == {2}


def test_partitions_on_node():
    pm = PartitionMap(_nodes(4), replication=2, num_partitions=8)
    node = _nodes(4)[0]
    owned = pm.partitions_on(node)
    # node 1 is in group 0: partitions 0, 2, 4, 6
    assert owned == [0, 2, 4, 6]
