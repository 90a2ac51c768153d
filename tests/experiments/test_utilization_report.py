"""``Harness.utilization_report`` against the traffic it reduces.

A small HopsFS and a small CephFS point: the window's report must read
back, rate by rate, the byte counts of the window's own traffic delta —
each tier's per-node read and write rates times the tier's node count and
the window are its nodes' received and sent bytes, the per-AZ rates add up
to the tier's bytes, and the cross-/intra-AZ volume is the delta's.
"""

import pytest

from repro.experiments.setups import SETUPS
from repro.metrics.collectors import MetricsCollector
from repro.workloads import generate_namespace
from repro.workloads.driver import ClosedLoopDriver
from repro.workloads.spotify import SpotifyWorkload


def _tiers(harness):
    """(storage, servers) addresses, read off the deployment itself."""
    if harness.spec.kind == "hopsfs":
        dep = harness.deployment
        return list(dep.ndb.datanodes), [nn.addr for nn in dep.namenodes]
    cluster = harness.cluster
    return [o.addr for o in cluster.osds], [m.addr for m in cluster.mds_list]


def _window(setup, servers, window_ms=8.0):
    harness = SETUPS[setup].build(servers)
    env = harness.env
    namespace = generate_namespace(num_top_dirs=2, dirs_per_top=4, files_per_dir=6, seed=0)
    harness.install(namespace)
    env.run_process(harness.ready(), until=env.now + 60_000)
    workload = SpotifyWorkload(namespace, seed=0, tag=setup)
    clients = harness.make_clients(8 * servers)
    harness.warm_client_caches(clients, workload)
    ClosedLoopDriver(env, clients, workload, MetricsCollector()).start()
    env.run(until=env.now + 4.0)
    snap = harness.utilization_snapshot()
    env.run(until=env.now + window_ms)
    report = harness.utilization_report(snap)
    return harness, report, harness.network.traffic.delta_since(snap["traffic"])


@pytest.mark.parametrize("setup", ["HopsFS-CL (3,3)", "CephFS"])
def test_report_reads_back_the_window_traffic(setup):
    harness, report, delta = _window(setup, servers=3)
    window = report.window_ms
    assert window == pytest.approx(8.0)
    az_of = harness.network.topology.az_of
    storage, servers = _tiers(harness)
    rates = {
        "storage": (report.storage_net_read_mb_s, report.storage_net_write_mb_s),
        "server": (report.server_net_read_mb_s, report.server_net_write_mb_s),
    }
    for tier, addrs in (("storage", storage), ("server", servers)):
        received = sum(delta.node[a].received for a in addrs if a in delta.node)
        sent = sum(delta.node[a].sent for a in addrs if a in delta.node)
        assert received > 0 and sent > 0
        read, write = rates[tier]
        assert read * len(addrs) * window * 1000 == pytest.approx(received)
        assert write * len(addrs) * window * 1000 == pytest.approx(sent)
        # Per AZ: read + write per node of the AZ, times its nodes, sums to
        # the tier's bytes.
        nodes = {az: sum(1 for a in addrs if az_of(a) == az) for az in report.per_az}
        per_az_bytes = sum(
            getattr(util, f"{tier}_net_mb_s") * nodes[az] * window * 1000
            for az, util in report.per_az.items()
        )
        assert per_az_bytes == pytest.approx(received + sent)
    assert list(report.per_az) == sorted({az_of(a) for a in storage + servers})
    assert report.cross_az_mb == delta.cross_az_bytes / 1e6
    assert report.intra_az_mb == delta.intra_az_bytes / 1e6
    assert report.cross_az_mb > 0 and report.intra_az_mb > 0
