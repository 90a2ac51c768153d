"""Regenerate every table and figure of the paper's evaluation.

Each ``figN()`` returns a :class:`repro.metrics.Table` whose rows mirror
the series of the corresponding figure.  Figures 5, 6, 8 and 10-13 all
derive from the same Spotify-workload sweep (as in the paper), which is
run once per process and cached.

Scale knobs: ``REPRO_BENCH_FULL=1`` runs the paper's full server grid;
``REPRO_BENCH_SCALE`` multiplies the measurement windows.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Iterable, Optional

from ..metrics.report import Table, az_skew_note
from ..net import US_WEST1_AZS, build_us_west1
from ..ndb.config import TABLE2_THREADS
from ..types import OpType
from .runner import PointResult, RunConfig, run_point, server_grid
from .setups import BENCH, SETUPS

__all__ = [
    "table1",
    "table2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig_async",
    "sweep",
    "HOPSFS_SETUPS",
    "CEPH_SETUPS",
]

HOPSFS_SETUPS = [
    "HopsFS (2,1)",
    "HopsFS (3,1)",
    "HopsFS (2,3)",
    "HopsFS (3,3)",
    "HopsFS-CL (2,3)",
    "HopsFS-CL (3,3)",
]
CEPH_SETUPS = ["CephFS", "CephFS - DirPinned", "CephFS - SkipKCache"]
ALL_SETUPS = HOPSFS_SETUPS + CEPH_SETUPS

_SWEEP_CACHE: dict[tuple[str, int], PointResult] = {}


def _config_for(setup: str) -> RunConfig:
    # CephFS needs a longer warmup for its MDS queues and client caches to
    # reach steady state; HopsFS stabilizes quickly.
    if setup.startswith("CephFS"):
        return RunConfig(warmup_ms=100.0, window_ms=40.0)
    return RunConfig(warmup_ms=15.0, window_ms=15.0)


def sweep(
    setups: Iterable[str] = ALL_SETUPS,
    grid: Optional[list[int]] = None,
) -> dict[tuple[str, int], PointResult]:
    """Run (or reuse) the Spotify-workload sweep over the server grid."""
    grid = grid or server_grid()
    for setup in setups:
        for n in grid:
            key = (setup, n)
            if key not in _SWEEP_CACHE:
                _SWEEP_CACHE[key] = run_point(setup, n, config=_config_for(setup))
    return {
        (s, n): _SWEEP_CACHE[(s, n)]
        for s in setups
        for n in (grid or [])
        if (s, n) in _SWEEP_CACHE
    }


# --------------------------------------------------------------------- tables
def table1() -> Table:
    """Table I: measured latencies between AZs of us-west1 (ms)."""
    table = Table(
        title="Table I - inter-AZ latencies (ms), us-west1",
        headers=["", *US_WEST1_AZS],
    )
    topo = build_us_west1()
    for a in range(1, 4):
        row = [US_WEST1_AZS[a - 1]]
        for b in range(1, 4):
            row.append(topo.az_pair_latency(a, b))
        table.add_row(*row)
    table.add_note("values are the paper's measurements, used as the model's one-way delays")
    return table


def table2() -> Table:
    """Table II: the NDB CPU/thread configuration (27 threads)."""
    table = Table(
        title="Table II - NDB datanode thread configuration",
        headers=["type", "count", "responsibility"],
    )
    notes = {
        "ldm": "tables' data shards",
        "tc": "ongoing transactions on the database nodes",
        "recv": "inbound network traffic",
        "send": "outbound network traffic",
        "rep": "replication across clusters",
        "io": "I/O operations",
        "main": "schema management",
    }
    for name, count in TABLE2_THREADS.items():
        table.add_row(name.upper(), count, notes[name])
    table.add_row("total", sum(TABLE2_THREADS.values()), "")
    return table


# -------------------------------------------------------------------- figures
def fig5(grid: Optional[list[int]] = None) -> Table:
    """Fig. 5: throughput (ops/s) vs number of metadata servers, 9 setups."""
    grid = grid or server_grid()
    results = sweep(ALL_SETUPS, grid)
    table = Table(
        title="Figure 5 - Spotify workload throughput (ops/s)",
        headers=["setup", *[str(n) for n in grid]],
    )
    for setup in ALL_SETUPS:
        table.add_row(setup, *[results[(setup, n)].throughput_ops_s for n in grid])
    return table


def fig6(grid: Optional[list[int]] = None) -> Table:
    """Fig. 6: actual requests handled per metadata server (ops/s)."""
    grid = grid or server_grid()
    setups = ["HopsFS-CL (2,3)", "HopsFS-CL (3,3)", *CEPH_SETUPS]
    results = sweep(setups, grid)
    table = Table(
        title="Figure 6 - throughput per metadata server (ops/s, log2 in the paper)",
        headers=["setup", *[str(n) for n in grid]],
    )
    for setup in setups:
        row = [setup]
        for n in grid:
            point = results[(setup, n)]
            if point.mds_requests_s is not None:
                row.append(point.mds_requests_s / n)
            else:
                row.append(point.per_server_ops_s)
        table.add_row(*row)
    table.add_note("CephFS rows count actual MDS requests (cache hits excluded)")
    return table


_FIG7_OPS = [OpType.MKDIR, OpType.CREATE_FILE, OpType.DELETE_FILE, OpType.READ_FILE]


def fig7(num_servers: Optional[int] = None) -> Table:
    """Fig. 7: single-operation microbenchmark throughput (ops/s)."""
    if num_servers is None:
        num_servers = 60 if os.environ.get("REPRO_BENCH_FULL") else 24
    table = Table(
        title=f"Figure 7 - microbenchmark throughput (ops/s), {num_servers} metadata servers",
        headers=["setup", *[op.value for op in _FIG7_OPS]],
    )
    for setup in ALL_SETUPS:
        row = [setup]
        for op in _FIG7_OPS:
            point = run_point(
                setup, num_servers, workload="single", op=op, config=_config_for(setup)
            )
            row.append(point.throughput_ops_s)
        table.add_row(*row)
    return table


def fig8(grid: Optional[list[int]] = None) -> Table:
    """Fig. 8: average end-to-end latency (ms) vs metadata servers."""
    grid = grid or server_grid()
    results = sweep(ALL_SETUPS, grid)
    table = Table(
        title="Figure 8 - average end-to-end latency (ms), Spotify workload",
        headers=["setup", *[str(n) for n in grid]],
    )
    for setup in ALL_SETUPS:
        table.add_row(setup, *[results[(setup, n)].avg_latency_ms for n in grid])
    return table


def fig9(num_servers: int = 60) -> Table:
    """Fig. 9: p50/p90/p99 latency of create/read/delete at 50% load."""
    table = Table(
        title=f"Figure 9 - latency percentiles (ms) at 50% load, {num_servers} servers",
        headers=["setup", "op", "p50", "p90", "p99"],
    )
    interesting = [OpType.CREATE_FILE, OpType.READ_FILE, OpType.DELETE_FILE]
    for setup in ALL_SETUPS:
        saturation = sweep([setup], [num_servers])[(setup, num_servers)].throughput_ops_s
        config = _config_for(setup)
        config.open_loop_rate_per_ms = max(0.05, saturation / 1000.0 * 0.5)
        point = run_point(setup, num_servers, config=config, keep_collector=True)
        collector = point.extra["collector"]
        for op in interesting:
            pcts = collector.latency_percentiles(op=op)
            table.add_row(setup, op.value, pcts[50], pcts[90], pcts[99])
    return table


def fig10(grid: Optional[list[int]] = None) -> Table:
    """Fig. 10: CPU utilization per storage node (a) and per server (b)."""
    grid = grid or server_grid()
    results = sweep(ALL_SETUPS, grid)
    table = Table(
        title="Figure 10 - CPU utilization %: storage nodes / metadata servers",
        headers=["setup", *[f"{n} (stor/srv)" for n in grid]],
    )
    for setup in ALL_SETUPS:
        row = [setup]
        for n in grid:
            r = results[(setup, n)].resource
            row.append(f"{r.storage_cpu_pct:.1f}/{r.server_cpu_pct:.1f}")
        table.add_row(*row)
    return table


def fig11(grid: Optional[list[int]] = None) -> Table:
    """Fig. 11: CPU per NDB thread type, HopsFS-CL (3,3)."""
    grid = grid or server_grid()
    results = sweep(["HopsFS-CL (3,3)"], grid)
    types = ["ldm", "tc", "recv", "send", "rep", "io", "main"]
    table = Table(
        title="Figure 11 - NDB thread-type CPU %, HopsFS-CL (3,3)",
        headers=["thread", *[str(n) for n in grid]],
    )
    for t in types:
        table.add_row(
            t.upper(),
            *[results[("HopsFS-CL (3,3)", n)].resource.ndb_thread_cpu_pct.get(t, 0.0) for n in grid],
        )
    return table


def fig12(grid: Optional[list[int]] = None) -> Table:
    """Fig. 12: network and disk utilization of the metadata storage layer."""
    grid = grid or server_grid()
    results = sweep(ALL_SETUPS, grid)
    table = Table(
        title="Figure 12 - storage layer: net read/write + disk write (MB/s per node)",
        headers=["setup", *[str(n) for n in grid]],
    )
    for setup in ALL_SETUPS:
        row = [setup]
        for n in grid:
            r = results[(setup, n)].resource
            row.append(
                f"{r.storage_net_read_mb_s:.2f}/{r.storage_net_write_mb_s:.2f}/{r.storage_disk_write_mb_s:.3f}"
            )
        table.add_row(*row)
        note = az_skew_note(setup, results[(setup, grid[-1])].resource, tier="storage")
        if note:
            table.add_note(f"n={grid[-1]} {note}")
    return table


def fig13(grid: Optional[list[int]] = None) -> Table:
    """Fig. 13: network utilization per metadata server."""
    grid = grid or server_grid()
    results = sweep(ALL_SETUPS, grid)
    table = Table(
        title="Figure 13 - metadata server: net read/write (MB/s per server)",
        headers=["setup", *[str(n) for n in grid]],
    )
    for setup in ALL_SETUPS:
        row = [setup]
        for n in grid:
            r = results[(setup, n)].resource
            row.append(f"{r.server_net_read_mb_s:.2f}/{r.server_net_write_mb_s:.2f}")
        table.add_row(*row)
        note = az_skew_note(setup, results[(setup, grid[-1])].resource, tier="server")
        if note:
            table.add_note(f"n={grid[-1]} {note}")
    return table


def fig_async(num_servers: int = 6) -> Table:
    """Sync vs async group commit: mkdir microbenchmark, all 9 setups.

    Runs the mutation-heavy mkdir workload twice per setup — legacy
    synchronous commit and the async group-commit path — and reports
    throughput, average latency and the async/sync throughput ratio.
    CephFS setups have no NDB commit path, so ``async_commit`` is a no-op
    there and both columns are the same deterministic run.
    """
    from ..hopsfs.groupcommit import AsyncCommitConfig

    table = Table(
        title=(f"Async group commit - mkdir throughput (ops/s) sync vs async, "
               f"{num_servers} metadata servers"),
        headers=["setup", "sync ops/s", "async ops/s", "speedup",
                 "sync avg ms", "async avg ms"],
    )
    for setup in ALL_SETUPS:
        points = {}
        for mode, commit in (("sync", None), ("async", AsyncCommitConfig())):
            config = _config_for(setup)
            config.async_commit = commit
            points[mode] = run_point(
                setup, num_servers, workload="single", op=OpType.MKDIR,
                config=config,
            )
        sync_tput = points["sync"].throughput_ops_s
        table.add_row(
            setup,
            sync_tput,
            points["async"].throughput_ops_s,
            points["async"].throughput_ops_s / sync_tput if sync_tput else 0.0,
            points["sync"].avg_latency_ms,
            points["async"].avg_latency_ms,
        )
    table.add_note("async acks at batch admission; durability via fsync horizon")
    table.add_note("CephFS rows ignore async_commit (no NDB commit path)")
    return table


def fig14(num_partitions_shown: int = 24) -> Table:
    """Fig. 14: read distribution across replicas, Read Backup on vs off.

    Runs the Spotify mix against an AZ-aware 3-AZ deployment twice — with
    the Read Backup table option enabled and disabled — and reports, per
    partition, the fraction of reads served by the primary and each backup.
    """
    from ..metrics.collectors import MetricsCollector
    from ..workloads.driver import ClosedLoopDriver
    from ..workloads.namespace import generate_namespace
    from ..workloads.spotify import SpotifyWorkload

    table = Table(
        title="Figure 14 - reads per replica role, Read Backup on/off",
        headers=["mode", "partition", "primary %", "backup1 %", "backup2 %"],
    )
    # Fig. 14 predates the AZ-fabric cap Fig. 5 runs under (ROADMAP item 3).
    uncapped = replace(BENCH, az_link_bandwidth_bytes_per_ms=None)

    for mode, read_backup in (("ReadBackup Enabled", True), ("ReadBackup Disabled", False)):
        harness = SETUPS["HopsFS-CL (3,3)"].build(6, seed=3, tuning=uncapped)
        deployment = harness.deployment
        # Override the schema default: HopsFS-CL normally forces RB on.
        if not read_backup:
            for tdef in deployment.ndb.schema.tables():
                object.__setattr__(tdef, "read_backup", False)
        env = harness.env
        namespace = generate_namespace(seed=3)
        harness.install(namespace)
        env.run_process(harness.ready(), until=60_000)
        workload = SpotifyWorkload(namespace, seed=3)
        clients = harness.make_clients(240)
        collector = MetricsCollector()
        driver = ClosedLoopDriver(env, clients, workload, collector)
        driver.start()
        env.run(until=env.now + 30.0)
        driver.stop()
        stats = deployment.ndb.read_stats
        shown = 0
        for partition in range(deployment.ndb.config.num_partitions):
            dist = stats.partition_distribution(partition)
            total = sum(dist.values())
            if total < 20:
                continue
            table.add_row(
                mode,
                partition,
                100.0 * dist.get(0, 0) / total,
                100.0 * dist.get(1, 0) / total,
                100.0 * dist.get(2, 0) / total,
            )
            shown += 1
            if shown >= num_partitions_shown:
                break
    table.add_note("without Read Backup every committed read is redirected to the primary")
    return table
