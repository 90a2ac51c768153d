#!/usr/bin/env python3
"""Demonstrate the Read Backup feature: AZ-local reads (paper Fig. 14).

Runs the same read-heavy workload twice against an AZ-aware 3-AZ NDB
cluster — once with the Read Backup table option on, once off — and shows
where the reads were served and how much traffic crossed AZ boundaries.
"""

from repro.net import Network, build_us_west1
from repro.ndb import NdbCluster, NdbConfig, Schema
from repro.ndb.cluster import az_assignment_for
from repro.sim import Environment, RngRegistry
from repro.types import NodeAddress, NodeKind


def run_mode(read_backup: bool) -> None:
    env = Environment()
    topology = build_us_west1()
    network = Network(env, topology)
    schema = Schema()
    schema.define("kv", read_backup=read_backup)
    cluster = NdbCluster(
        env,
        network,
        NdbConfig(num_datanodes=6, replication=3, az_aware=True),
        schema,
        datanode_azs=az_assignment_for(6, 3, [1, 2, 3]),
        mgmt_azs=(1, 2, 3),
        rng=RngRegistry(seed=1),
    )
    cluster.start(heartbeats=False)

    clients = []
    for i, az in enumerate((1, 2, 3), start=1):
        addr = NodeAddress(NodeKind.CLIENT, i)
        topology.add_host(addr, az=az)
        clients.append(cluster.api(addr))

    def scenario():
        writer = clients[0]
        txn = writer.transaction(hint_table="kv", hint_key="k0")
        for i in range(30):
            yield from txn.write("kv", f"k{i}", i)
        yield from txn.commit()
        snap = network.traffic
        for _round in range(10):
            for api in clients:
                for i in range(30):
                    txn = api.transaction(hint_table="kv", hint_key=f"k{i}")
                    yield from txn.read("kv", f"k{i}")
                    yield from txn.commit()
        return network.traffic.delta_since(snap)

    delta = env.run_process(scenario(), until=120_000)
    stats = cluster.read_stats
    total = stats.total_reads()
    primary = sum(c for (t, p, r), c in stats.by_replica.items() if r == 0)
    mode = "Read Backup ENABLED " if read_backup else "Read Backup DISABLED"
    print(f"{mode}: {total:5d} reads | primary {100 * primary / total:5.1f}% | "
          f"AZ-local {stats.az_local_fraction() * 100:5.1f}% | "
          f"cross-AZ read traffic {delta.cross_az_bytes / 1000:.1f} KB")


if __name__ == "__main__":
    print("Where do committed reads go? (3 replicas over 3 AZs, clients in all AZs)")
    run_mode(read_backup=False)
    run_mode(read_backup=True)
    print("\nWith Read Backup, reads are served by the replica in the client's AZ\n"
          "(Section IV-A / Fig. 14) — cross-AZ traffic collapses.")
