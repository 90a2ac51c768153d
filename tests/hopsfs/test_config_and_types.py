"""Config objects, op-type metadata and deployment validation."""

import pytest

from repro.errors import ConfigError
from repro.hashing import stable_hash
from repro.hopsfs import HopsFsConfig, build_hopsfs
from repro.ndb import NdbConfig
from repro.types import MUTATING_OPS, NodeAddress, NodeKind, OpResult, OpType


def test_op_cost_split_read_vs_mutation():
    config = HopsFsConfig()
    assert config.op_cost(OpType.READ_FILE) == config.op_cost_read_ms
    assert config.op_cost(OpType.CREATE_FILE) == config.op_cost_mutation_ms
    assert config.op_cost(OpType.MKDIR) > config.op_cost(OpType.STAT)


def test_config_validation():
    with pytest.raises(ConfigError):
        HopsFsConfig(nn_cores=0)


def test_mutating_ops_classification():
    assert OpType.CREATE_FILE.mutates
    assert OpType.RENAME.mutates
    assert not OpType.READ_FILE.mutates
    assert not OpType.LIST_DIR.mutates
    assert not OpType.EXISTS.mutates
    assert OpType.SET_REPLICATION in MUTATING_OPS


def test_op_result_latency():
    result = OpResult(op=OpType.STAT, start_ms=3.0, end_ms=7.5)
    assert result.latency_ms == 4.5
    assert result.ok


def test_node_address_str_and_ordering():
    a = NodeAddress(NodeKind.NAMENODE, 1)
    b = NodeAddress(NodeKind.NAMENODE, 2)
    assert str(a) == "nn1"
    assert a < b
    assert a != NodeAddress(NodeKind.DATANODE, 1)


def test_node_address_identity_is_value_based():
    """Equal-but-not-identical addresses are one dict key; the contract the
    dataclass gave, now met by a named tuple hashing in C."""
    a = NodeAddress(NodeKind.NDB_DATANODE, 3)
    b = NodeAddress(kind=NodeKind("ndbd"), index=3)
    assert a == b and a is not b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x" and b in {a}
    assert (a.kind, a.index) == (NodeKind.NDB_DATANODE, 3)
    assert repr(a) == "NodeAddress(kind=<NodeKind.NDB_DATANODE: 'ndbd'>, index=3)"
    assert hash(NodeKind.NDB_DATANODE) == hash("ndbd")
    with pytest.raises(AttributeError):
        a.index = 4
    # Order: by kind's string value, then index (as the dataclass ordered).
    mixed = [NodeAddress(NodeKind.NAMENODE, 2), NodeAddress(NodeKind.CLIENT, 9),
             NodeAddress(NodeKind.NAMENODE, 1)]
    assert [str(x) for x in sorted(mixed)] == ["client9", "nn1", "nn2"]
    assert [str(NodeAddress(kind, 1)) for kind in NodeKind] == [
        "ndbd1", "ndb_mgmd1", "nn1", "dn1", "client1", "mds1", "osd1", "mon1"]


def test_node_address_as_stable_hash_input():
    # Partition placement hashes repr(key); these values are what the
    # dataclass-era NodeAddress produced.
    assert stable_hash(NodeAddress(NodeKind.NAMENODE, 3)) == 2055620177
    assert stable_hash((NodeAddress(NodeKind.CLIENT, 1), "x")) == 2215264764
    assert stable_hash(NodeAddress(NodeKind.NAMENODE, 3)) == stable_hash(
        NodeAddress(NodeKind("nn"), 3))


def test_build_hopsfs_rejects_empty_azs():
    with pytest.raises(ConfigError):
        build_hopsfs(azs=())


def test_deployment_client_az_cycles():
    fs = build_hopsfs(
        num_namenodes=1,
        azs=(1, 2, 3),
        az_aware=True,
        ndb_config=NdbConfig(num_datanodes=3, replication=3, az_aware=True),
        election=False,
    )
    azs = [fs.topology.az_of(fs.client().addr) for _ in range(6)]
    assert azs == [1, 2, 3, 1, 2, 3]


def test_mgmt_arbitrator_in_least_loaded_az():
    """Figure 3: the arbitrator sits in the AZ without NDB data."""
    fs = build_hopsfs(
        num_namenodes=1,
        azs=(2, 3),
        az_aware=True,
        ndb_config=NdbConfig(num_datanodes=4, replication=2, az_aware=True),
        election=False,
    )
    arbitrator = fs.ndb.mgmt_nodes[0]
    assert arbitrator.az == 1  # the AZ with no datanodes
