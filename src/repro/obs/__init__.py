"""Observability layer: span tracing, metrics registry, exporters.

Usage (the CLI's ``--trace`` flag does exactly this)::

    from repro.obs import ObsContext

    obs = ObsContext()
    point = run_point("HopsFS-CL (3,3)", 6, obs=obs)
    write_chrome_trace(obs.tracer, "trace.json")
    print(breakdown_table(obs.tracer).render())

Attaching sets ``env.obs``; every instrumented component checks
``env.obs is not None`` exactly once on its hot path and does nothing
when it is ``None`` (the default), so untraced runs pay one attribute
load per instrumentation point.  See DESIGN.md "Observability".
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

from .breakdown import (OpBreakdown, breakdown_table, phase_breakdown,
                        phase_breakdown_json)
from .export import (
    chrome_trace,
    spans_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .slo import Alert, SloEngine, SloSpec, default_slos
from .timeseries import OpWindow, TimeSeriesHub
from .tracer import Span, Tracer

# NOTE: repro.obs.detect (the chaos detector-scoring harness) is *not*
# re-exported here: it imports repro.chaos, which imports the experiment
# setups, which import this package — import it as ``repro.obs.detect``.

__all__ = [
    "ObsContext",
    "Span",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "TimeSeriesHub",
    "OpWindow",
    "SloSpec",
    "SloEngine",
    "Alert",
    "default_slos",
    "chrome_trace",
    "write_chrome_trace",
    "spans_jsonl",
    "write_spans_jsonl",
    "validate_chrome_trace",
    "OpBreakdown",
    "phase_breakdown",
    "phase_breakdown_json",
    "breakdown_table",
    "register_deployment_metrics",
]


class ObsContext:
    """One run's observability state: tracer + metrics registry, and an
    optional windowed time-series hub (``timeseries``, default ``None`` —
    instrumentation sites guard on it, so plain traced runs pay nothing
    for the sampler)."""

    __slots__ = ("tracer", "registry", "timeseries", "env")

    def __init__(self, tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None,
                 timeseries: Optional[TimeSeriesHub] = None):
        self.tracer = tracer if tracer is not None else Tracer()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.timeseries = timeseries
        self.env = None

    def attach(self, env) -> "ObsContext":
        """Bind to a simulation environment (sets ``env.obs``)."""
        self.env = env
        self.tracer._env = env
        env.obs = self
        return self

    def detach(self) -> None:
        if self.env is not None:
            self.env.obs = None
            self.env = None


# Registry name -> attribute path, summed over one group of components.  The
# components keep plain ints (tests and bench_e2e read them directly); the
# registry reads the same ints, so each count exists once.
_NAMENODE_SUMS = {
    "nn.ops_served": "ops_served", "nn.ops_failed": "ops_failed",
    "nn.ops_shed": "ops_shed", "nn.shed": "ops_shed",
    "nn.drain_rejected": "ops_drain_rejected",
    "nn.dircache.hit": "dir_cache.hits", "nn.dircache.miss": "dir_cache.misses",
}
_LISTCACHE_SUMS = {
    "nn.listcache.hit": "listing_cache.hits", "nn.listcache.miss": "listing_cache.misses",
    "nn.listcache.invalidation": "listing_cache.invalidations",
    "nn.listcache.flush": "listing_cache.flushes",
}
_CLIENT_SUMS = {"client.membership_refresh": "membership_refreshes"} | {
    f"client.{attr}": attr
    for attr in ("failovers", "timeouts", "hedges", "hedge_wins", "busy_rejections")}
_MDS_SUMS = {"mds.ops_served": "ops_served", "mds.journal_flushes": "journal_flushes"}


def _sum_gauges(reg: MetricsRegistry, sums: dict, items) -> None:
    for name, path in sums.items():
        reg.gauge(name, lambda get=attrgetter(path): sum(map(get, items())))


def register_deployment_metrics(obs: ObsContext, harness) -> None:
    """Register callable-backed gauges over a deployment's live counters.

    ``snapshot()`` then enumerates cache hit rates, client fail-overs,
    re-replication work, lock timeouts, drops, etc., without each report
    knowing component internals.  ``harness`` is a
    :class:`repro.experiments.setups.Harness`.
    """
    reg = obs.registry
    reg.gauge("net.dropped_messages", lambda: harness.network.dropped_messages)
    if harness.spec.kind == "hopsfs":
        deployment = harness.deployment
        _sum_gauges(reg, _NAMENODE_SUMS, lambda: deployment.namenodes)
        if deployment.config.listing_cache is not None:
            _sum_gauges(reg, _LISTCACHE_SUMS, lambda: deployment.namenodes)
        _sum_gauges(reg, _CLIENT_SUMS, lambda: harness.clients)
        _sum_gauges(reg, {"ndb.lock.timeouts": "locks.timeouts_fired"},
                    deployment.ndb.datanodes.values)
        reg.gauge("blocks.rereplications",
                  lambda: deployment.namenodes[0].block_manager.rereplications)
        reg.gauge("ndb.active_transactions", lambda: deployment.ndb.active_transactions)
        reg.gauge("nn.retry_cache.entries",
                  lambda: sum(len(nn.retry_cache) for nn in deployment.namenodes
                              if nn.retry_cache is not None))
        reg.gauge("net.late_replies", lambda: harness.network.late_replies)
    else:
        cluster = harness.cluster
        _sum_gauges(reg, _MDS_SUMS, lambda: cluster.mds_list)
        reg.gauge("mds.failovers", lambda: getattr(cluster, "failovers", 0))
