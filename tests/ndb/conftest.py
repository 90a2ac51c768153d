"""Shared fixtures: small NDB clusters wired into a simulated region."""

import pytest

from repro.net import Network, build_us_west1
from repro.ndb import NdbCluster, NdbConfig, Schema
from repro.ndb.cluster import az_assignment_for
from repro.sim import Environment, RngRegistry
from repro.types import NodeAddress, NodeKind


class Harness:
    """A simulation environment with one NDB cluster and one API client."""

    def __init__(self, env, network, cluster, client_addr):
        self.env = env
        self.network = network
        self.cluster = cluster
        self.client_addr = client_addr
        self.api = cluster.api(client_addr)

    def run(self, generator, until=10_000):
        return self.env.run_process(generator, until=until)


def build_harness(
    num_datanodes=4,
    replication=2,
    azs=(1, 2),
    mgmt_azs=(3,),
    az_aware=True,
    read_backup=True,
    fully_replicated_tables=(),
    client_az=1,
    num_partitions=8,
    heartbeats=False,
    **config_kwargs,
):
    env = Environment()
    topo = build_us_west1()
    network = Network(env, topo)
    schema = Schema()
    schema.define("t", read_backup=read_backup)
    schema.define("plain", read_backup=False)
    for name in fully_replicated_tables:
        schema.define(name, fully_replicated=True)
    config = NdbConfig(
        num_datanodes=num_datanodes,
        replication=replication,
        num_partitions=num_partitions,
        az_aware=az_aware,
        **config_kwargs,
    )
    cluster = NdbCluster(
        env,
        network,
        config,
        schema,
        datanode_azs=az_assignment_for(num_datanodes, replication, list(azs)),
        mgmt_azs=mgmt_azs,
        rng=RngRegistry(seed=7),
    )
    client_addr = NodeAddress(NodeKind.CLIENT, 1)
    topo.add_host(client_addr, az=client_az)
    cluster.start(heartbeats=heartbeats)
    return Harness(env, network, cluster, client_addr)


@pytest.fixture
def harness():
    return build_harness()


def store_state(store):
    """A fragment store's rows and index with their iteration orders (dict
    and set order): what a bulk load must leave exactly as one-by-one
    loads do."""
    return (
        list(store._rows.items()),
        [(key, list(pks)) for key, pks in store._index.items()],
    )
