"""Experiment runner: one (setup, server-count, workload) point at a time.

Methodology mirrors the paper's: preload a namespace, run closed-loop
clients to saturation (Fig. 5) or an open-loop arrival stream at a target
rate (Fig. 9), measure throughput/latency inside a warm window, and
snapshot resource counters around it (Figs. 10-13).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from ..metrics.collectors import MetricsCollector
from ..metrics.utilization import ResourceReport
from ..types import OpType
from ..workloads.driver import ClosedLoopDriver, OpenLoopDriver
from ..workloads.namespace import generate_namespace
from ..workloads.spotify import SingleOpWorkload, SpotifyWorkload
from .setups import SETUPS, SetupSpec, resolve_setup

__all__ = ["PointResult", "RunConfig", "run_point", "bench_scale", "server_grid"]


def bench_scale() -> float:
    """Wall-clock knob: scales windows/client counts (REPRO_BENCH_SCALE)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def server_grid(full_env: str = "REPRO_BENCH_FULL") -> list[int]:
    """Metadata-server counts for sweep figures.

    The paper's grid is {1, 6, 12, 18, 24, 36, 48, 60}; the default quick
    grid keeps the endpoints and the knee.  Set REPRO_BENCH_FULL=1 for the
    full grid.
    """
    if os.environ.get(full_env):
        return [1, 6, 12, 18, 24, 36, 48, 60]
    return [1, 6, 24, 60]


@dataclass
class RunConfig:
    """Knobs for one experiment point."""

    clients_per_server: int = 160
    warmup_ms: float = 30.0
    window_ms: float = 30.0
    namespace_top_dirs: int = 8
    namespace_dirs_per_top: int = 64
    namespace_files_per_dir: int = 32
    seed: int = 0
    open_loop_rate_per_ms: Optional[float] = None
    max_clients: int = 12_000
    # Opt HopsFS setups into the async group-commit metadata path (an
    # AsyncCommitConfig); None keeps the synchronous legacy path.  CephFS
    # setups ignore it.
    async_commit: Optional[object] = None
    # Opt HopsFS setups into the pre-materialized listing cache (a
    # ListingCacheConfig); None keeps every read transactional.  CephFS
    # setups ignore it.
    listing_cache: Optional[object] = None

    def scaled(self) -> "RunConfig":
        scale = bench_scale()
        if scale == 1.0:
            return self
        clone = RunConfig(**self.__dict__)
        clone.window_ms = self.window_ms * scale
        clone.warmup_ms = self.warmup_ms * scale
        return clone


@dataclass
class PointResult:
    """Everything measured at one (setup, servers) point."""

    setup: str
    servers: int
    throughput_ops_s: float
    avg_latency_ms: float
    p50_ms: float
    p90_ms: float
    p99_ms: float
    completed: int
    failed: int
    resource: ResourceReport
    per_server_ops_s: float = 0.0
    mds_requests_s: Optional[float] = None
    # Total kernel events dispatched during the run (the DES sequence
    # counter) — the numerator of the perf harness's events/sec.
    events: int = 0
    # What the window's failed ops were: exception class name -> count.
    failed_by_error: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def run_point(
    spec: SetupSpec | str,
    num_servers: int,
    workload: str = "spotify",
    op: Optional[OpType] = None,
    config: Optional[RunConfig] = None,
    keep_collector: bool = False,
    obs=None,
):
    """Run one measurement point; returns a :class:`PointResult`.

    ``workload='spotify'`` replays the industrial mix; ``workload='single'``
    with ``op`` runs the Fig. 7 microbenchmarks.  Set
    ``config.open_loop_rate_per_ms`` for fixed-rate (Fig. 9) runs.

    Pass an :class:`repro.obs.ObsContext` as ``obs`` to trace the run: it
    is attached to the deployment's environment before any process starts,
    deployment counters are registered as gauges, and the context rides
    back in ``result.extra["obs"]``.  Tracing never perturbs the event
    schedule (see DESIGN.md "Observability").
    """
    if isinstance(spec, str):
        spec = SETUPS[resolve_setup(spec)]
    config = (config or RunConfig()).scaled()
    harness = spec.build(num_servers, seed=config.seed,
                         async_commit=config.async_commit,
                         listing_cache=config.listing_cache)
    env = harness.env
    if obs is not None:
        from ..obs import register_deployment_metrics

        obs.attach(env)
        register_deployment_metrics(obs, harness)

    namespace = generate_namespace(
        num_top_dirs=config.namespace_top_dirs,
        dirs_per_top=config.namespace_dirs_per_top,
        files_per_dir=config.namespace_files_per_dir,
        seed=config.seed,
    )
    harness.install(namespace)
    env.run_process(harness.ready(), until=env.now + 60_000)

    if workload == "single":
        if op is None:
            raise ValueError("single-op workload needs op=")
        gen = SingleOpWorkload(op, namespace, seed=config.seed)
        if op is OpType.DELETE_FILE:
            # Victims for the whole run at a generous rate estimate.
            budget = int(3000 * (config.warmup_ms + config.window_ms))
            harness.precreate(gen.precreate_paths(min(budget, 120_000)))
    else:
        gen = SpotifyWorkload(namespace, seed=config.seed, tag=spec.name)

    per_server = harness.preferred_clients_per_server or config.clients_per_server
    num_clients = min(config.max_clients, per_server * num_servers)
    clients = harness.make_clients(num_clients)
    harness.warm_client_caches(clients, gen)
    collector = MetricsCollector()
    if config.open_loop_rate_per_ms is not None:
        driver = OpenLoopDriver(
            env, clients, gen, collector, rate_per_ms=config.open_loop_rate_per_ms
        )
    else:
        driver = ClosedLoopDriver(env, clients, gen, collector)
    driver.start()

    env.run(until=env.now + config.warmup_ms)
    snap = harness.utilization_snapshot()
    collector.open_window(env.now)
    env.run(until=env.now + config.window_ms)
    collector.close_window(env.now)
    resource = harness.utilization_report(snap)
    driver.stop()

    pcts = collector.latency_percentiles()
    result = PointResult(
        setup=spec.name,
        servers=num_servers,
        throughput_ops_s=collector.throughput_ops_per_sec(),
        avg_latency_ms=collector.avg_latency_ms(),
        p50_ms=pcts[50],
        p90_ms=pcts[90],
        p99_ms=pcts[99],
        completed=collector.completed,
        failed=collector.failed,
        failed_by_error=dict(sorted(collector.failed_errors.items())),
        resource=resource,
        per_server_ops_s=collector.throughput_ops_per_sec() / max(1, num_servers),
        events=env._seq,
    )
    mds_requests = harness.mds_requests_since(snap)
    if mds_requests is not None and collector.window_ms > 0:
        result.mds_requests_s = mds_requests / (collector.window_ms / 1000.0)
    if keep_collector:
        result.extra["collector"] = collector
        result.extra["harness"] = harness
    if obs is not None:
        result.extra["obs"] = obs
    return result
