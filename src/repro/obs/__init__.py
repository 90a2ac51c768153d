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
from .timeseries import OpWindow, TimeSeriesHub, WindowedSeries
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
    "WindowedSeries",
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
        if self.timeseries is not None:
            self.timeseries.bind(self)
        env.obs = self
        return self

    def detach(self) -> None:
        if self.env is not None:
            self.env.obs = None
            self.env = None


def register_deployment_metrics(obs: ObsContext, harness) -> None:
    """Register callable-backed gauges over a deployment's live counters.

    The components keep their plain-int attributes (tests compare them
    directly); the registry exposes them uniformly so ``snapshot()``
    enumerates leader-election churn, re-replication work, lock timeouts,
    drops, etc., without each report knowing component internals.
    ``harness`` is a :class:`repro.experiments.setups.Harness`.
    """
    reg = obs.registry
    reg.gauge("net.dropped_messages", lambda n=harness.network: n.dropped_messages)
    if harness.spec.kind == "hopsfs":
        deployment = harness.deployment
        reg.gauge("nn.ops_served",
                  lambda d=deployment: sum(nn.ops_served for nn in d.namenodes))
        reg.gauge("nn.ops_failed",
                  lambda d=deployment: sum(nn.ops_failed for nn in d.namenodes))
        reg.gauge("blocks.rereplications",
                  lambda d=deployment: d.namenodes[0].block_manager.rereplications)
        reg.gauge("ndb.active_transactions",
                  lambda d=deployment: d.ndb.active_transactions)
        reg.gauge("ndb.lock.timeouts",
                  lambda d=deployment: sum(
                      dn.locks.timeouts_fired for dn in d.ndb.datanodes.values()))
        reg.gauge("nn.ops_shed",
                  lambda d=deployment: sum(nn.ops_shed for nn in d.namenodes))
        reg.gauge("nn.retry_cache.entries",
                  lambda d=deployment: sum(
                      len(nn.retry_cache) for nn in d.namenodes
                      if nn.retry_cache is not None))
        reg.gauge("net.late_replies",
                  lambda d=deployment: d.network.late_replies)
    else:
        cluster = harness.cluster
        reg.gauge("mds.ops_served",
                  lambda c=cluster: sum(m.ops_served for m in c.mds_list))
        reg.gauge("mds.journal_flushes",
                  lambda c=cluster: sum(m.journal_flushes for m in c.mds_list))
        reg.gauge("mds.failovers", lambda c=cluster: getattr(c, "failovers", 0))
