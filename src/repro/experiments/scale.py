"""Sharded million-client scale runs with a deterministic merge.

``run_scale`` partitions one huge open-loop workload into ``shards``
independent request streams.  Each shard is a complete DES instance — its
own deployment built from the same seed (a read-only snapshot of the
setup: every shard sees the identical cluster and preloaded namespace) —
driven by an :class:`~repro.workloads.arrivals.AggregatedArrivalEngine`
at ``1/shards`` of the offered load.  Splitting a Poisson arrival process
into independent thinned streams with the same client-identity
distribution is exact (superposition), so the union of the shards *is*
the aggregate workload, and any shard can be replayed alone.

Shards are executed by a pool of ``workers`` OS processes
(``multiprocessing``), then folded in sorted shard order into one merged
artifact: merged :class:`~repro.metrics.collectors.MetricsCollector`,
merged latency :class:`~repro.obs.metrics.Histogram`, a merged dispatch
hash (SHA-256 over the per-shard dispatch hashes in shard order) and, for
a ``scenario`` run, the availability view of the merged
:class:`~repro.obs.timeseries.TimeSeriesHub`.  The determinism contract,
gated by golden tests and CI:

* same ``(seed, setup, population, shards, …)`` ⇒ a bit-identical merged
  artifact, run after run;
* the artifact never depends on ``workers`` or on whether shards ran
  inline, forked, or distributed — worker count is pure execution
  placement, excluded from the hashed sections;
* per-shard randomness derives from ``(seed, shard_id, stream_name)``
  (:meth:`repro.sim.rng.RngRegistry.for_shard`), so no two shards can
  share an arrival sequence.

Wall-clock/CPU rates and RSS are recorded in a separate ``timing``
section that is *not* part of the hashed artifact.  The headline
``aggregate_events_per_sec`` is the sum of per-shard events per CPU
second: CPU time is immune to core contention, so the number means "what
the engine sustains with one core per shard" whether the run happened on
a laptop or a one-core CI container (the honest wall-clock rate of this
particular run is recorded alongside as ``wall_events_per_sec``).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import time
from dataclasses import asdict, dataclass
from typing import Optional

from ..errors import ReproError
from ..metrics.collectors import MetricsCollector
from ..obs.metrics import Histogram
from ..obs.timeseries import TimeSeriesHub
from ..sim import DispatchHash, RngRegistry
from ..workloads.arrivals import AggregatedArrivalEngine, ZipfPopulation
from ..workloads.namespace import generate_namespace
from ..workloads.spotify import SpotifyWorkload
from .setups import CHAOS, SETUPS

__all__ = ["ScaleConfig", "ShardResult", "run_scale", "run_shard", "SMOKE_CONFIG"]


@dataclass
class ScaleConfig:
    """Knobs for one sharded scale run.

    ``shards`` is the *deterministic partition count* (part of the
    reproducibility key); ``workers`` is how many OS processes execute
    them (never part of it).  ``rate_ops_per_ms`` is the total offered
    load across the whole population; each shard generates its
    ``1/shards`` share.
    """

    setup: str = "HopsFS-CL (3,3)"
    servers: int = 3
    population: int = 1_000_000
    rate_ops_per_ms: float = 2_000.0  # 2M ops/s offered, the paper's regime
    duration_ms: float = 200.0
    warmup_ms: float = 20.0
    drain_ms: float = 50.0
    seed: int = 0
    shards: int = 0  # 0 → 4 per AZ of the setup
    workers: int = 0  # 0 → min(shards, usable CPUs)
    zipf_s: float = 1.05
    detail_every: int = 64  # 1-in-K arrivals executed in full detail
    stubs_per_shard: int = 8
    max_inflight: int = 64
    scenario: Optional[str] = None  # optional chaos scenario per shard
    namespace_top_dirs: int = 4
    namespace_dirs_per_top: int = 16
    namespace_files_per_dir: int = 16

    def resolved_shards(self) -> int:
        if self.shards:
            return self.shards
        return 4 * len(SETUPS[self.setup].azs)

    def resolved_workers(self) -> int:
        if self.workers:
            return self.workers
        return max(1, min(self.resolved_shards(), _usable_cpus()))


# The canonical CI smoke configuration: small population, 2 shards, short
# windows.  Its merged artifact hash is committed as a golden
# (benchmarks/results/scale_smoke_golden.json) and gated by the
# scale-smoke CI job; bump the golden deliberately when the model changes.
SMOKE_CONFIG = ScaleConfig(
    population=100_000,
    rate_ops_per_ms=200.0,
    duration_ms=60.0,
    warmup_ms=10.0,
    drain_ms=20.0,
    shards=2,
    seed=0,
)


@dataclass
class ShardResult:
    """Everything one shard's DES produced (deterministic + timing)."""

    shard_id: int
    az: int
    arrivals: int
    shed: int
    detailed: int
    distinct_clients: int
    max_client_id: int
    events: int
    window_ms: float
    dispatch_hash: str
    collector: MetricsCollector
    histogram: Histogram
    verdicts: Optional[list] = None  # (name, ok, detail) when a scenario ran
    hub: Optional[TimeSeriesHub] = None  # every detailed op, when a scenario ran
    # -- timing (machine-dependent, never hashed) ---------------------------
    cpu_s: float = 0.0  # the measured window
    wall_s: float = 0.0  # the measured window
    build_wall_s: float = 0.0  # deployment, namespace, election, clients
    run_wall_s: float = 0.0  # warm-up, window, drain and verdicts
    rss_mb: float = 0.0

    def deterministic_dict(self) -> dict:
        """The hashed per-shard view: simulation outputs only."""
        out = {
            "shard_id": self.shard_id,
            "az": self.az,
            "arrivals": self.arrivals,
            "shed": self.shed,
            "detailed": self.detailed,
            "distinct_clients": self.distinct_clients,
            "max_client_id": self.max_client_id,
            "events": self.events,
            "window_ms": self.window_ms,
            "dispatch_hash": self.dispatch_hash,
            "collector": self.collector.summary(),
            "histogram": self.histogram.as_dict(),
        }
        # Scenario runs' availability rows are simulation outputs: hashed too.
        if self.hub is not None:
            out["timeline"] = self.hub.availability()
        if self.verdicts is not None:
            out["invariants"] = [
                {"name": n, "ok": ok, "detail": detail}
                for n, ok, detail in self.verdicts
            ]
        return out


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _peak_rss_mb() -> float:
    # KiB on Linux; the repo targets Linux (same convention as perf.py).
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_shard(payload: dict) -> ShardResult:
    """Run one shard's DES end to end (top-level: pool workers pickle it).

    ``payload`` is ``{"config": asdict(ScaleConfig), "shard_id": int}``.
    Everything here is a pure function of those values — worker processes
    inherit no run state besides the imported code.
    """
    build_wall0 = time.perf_counter()
    config = ScaleConfig(**payload["config"])
    shard_id = payload["shard_id"]
    num_shards = config.resolved_shards()
    spec = SETUPS[config.setup]
    az = spec.azs[shard_id % len(spec.azs)]

    scenario = None
    injector = None
    if config.scenario is not None:
        # Lazy import: chaos pulls in both full stacks.
        from ..chaos import SCENARIOS, FaultInjector

        if config.scenario not in SCENARIOS:
            raise ReproError(
                f"unknown scenario {config.scenario!r} "
                f"(have: {', '.join(sorted(SCENARIOS))})"
            )
        scenario = SCENARIOS[config.scenario]
        scenario.require(spec)
        harness = spec.build(config.servers, seed=config.seed, tuning=CHAOS,
                             **scenario.paths())
    else:
        harness = spec.build(config.servers, seed=config.seed)
    env = harness.env
    env.trace = DispatchHash()  # hashed as it goes: memory does not grow with events

    namespace = generate_namespace(
        num_top_dirs=config.namespace_top_dirs,
        dirs_per_top=config.namespace_dirs_per_top,
        files_per_dir=config.namespace_files_per_dir,
        seed=config.seed,
    )
    harness.install(namespace)
    env.run_process(harness.ready(), until=env.now + 60_000)

    rng = RngRegistry(config.seed).for_shard(shard_id)
    workload = SpotifyWorkload(namespace, seed=config.seed, tag=f"scale-{shard_id}")
    # All shard randomness flows through the (seed, shard_id, name) streams.
    workload.rng = rng.stream("ops")
    population = ZipfPopulation(config.population, config.zipf_s, rng.stream("population"))
    collector = MetricsCollector()
    # A scenario shard's detailed ops feed an availability timeline over
    # the fault window; the shard hubs merge deterministically in run_scale.
    hub = TimeSeriesHub() if scenario is not None else None
    engine = AggregatedArrivalEngine(
        env,
        harness.make_clients(config.stubs_per_shard, az=az),
        workload,
        collector,
        population,
        rate_per_ms=config.rate_ops_per_ms / num_shards,
        arrival_rng=rng.stream("arrivals"),
        detail_every=config.detail_every,
        max_inflight=config.max_inflight,
        az=az,
        hub=hub,
    )

    if scenario is not None:
        schedule = scenario.schedule_fn(harness)
        if schedule.end_ms() > config.duration_ms + config.drain_ms:
            raise ReproError(
                f"scenario {scenario.name!r} runs to {schedule.end_ms()}ms; "
                f"raise --duration so the fault schedule fits the load window"
            )
        injector = FaultInjector(harness, schedule)

    run_wall0 = time.perf_counter()
    engine.start()
    env.run(until=env.now + config.warmup_ms)
    collector.open_window(env.now)
    seq_before = env._seq
    arrivals_before = engine.arrivals
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    if injector is not None:
        injector.start()
    env.run(until=env.now + config.duration_ms)
    cpu_s = time.process_time() - cpu0
    wall_s = time.perf_counter() - wall0
    collector.close_window(env.now)
    events = env._seq - seq_before
    engine.stop()
    if config.drain_ms > 0:
        env.run(until=env.now + config.drain_ms)

    verdicts = None
    if scenario is not None:
        from ..chaos import verify_target

        verdicts = [(v.name, v.ok, v.detail) for v in verify_target(harness)]
        hub.finalize(env.now)
    run_wall_s = time.perf_counter() - run_wall0

    histogram = Histogram("scale.latency_ms")
    for value in collector.latencies_ms:
        histogram.observe(value)

    return ShardResult(
        shard_id=shard_id,
        az=az,
        # Offered-load accounting is window-scoped, like the collector.
        arrivals=engine.arrivals - arrivals_before,
        shed=engine.shed,
        detailed=engine.detailed,
        distinct_clients=len(engine.distinct_clients),
        max_client_id=engine.max_client_id,
        events=events,
        window_ms=collector.window_ms,
        dispatch_hash=env.trace.hexdigest(),
        collector=collector,
        histogram=histogram,
        verdicts=verdicts,
        hub=hub,
        cpu_s=cpu_s,
        wall_s=wall_s,
        build_wall_s=run_wall0 - build_wall0,
        run_wall_s=run_wall_s,
        rss_mb=_peak_rss_mb(),
    )


def _canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _deterministic_config(config: ScaleConfig) -> dict:
    """The config view that keys the artifact hash.

    ``workers`` is execution placement, not workload identity — it must
    never change the artifact — so it is excluded; ``shards`` is resolved
    so explicit and defaulted spellings of the same partition hash alike.
    """
    doc = asdict(config)
    doc.pop("workers")
    doc["shards"] = config.resolved_shards()
    return doc


def run_scale(config: Optional[ScaleConfig] = None) -> dict:
    """Run every shard, merge deterministically, return the artifact."""
    config = config or ScaleConfig()
    if config.setup not in SETUPS:
        raise ReproError(
            f"unknown setup {config.setup!r} (have: {', '.join(SETUPS)})"
        )
    num_shards = config.resolved_shards()
    workers = config.resolved_workers()
    payloads = [
        {"config": asdict(config), "shard_id": shard_id}
        for shard_id in range(num_shards)
    ]

    run_wall0 = time.perf_counter()
    if workers <= 1:
        results = [run_shard(p) for p in payloads]
    else:
        # fork keeps startup cheap on Linux; results come back in submission
        # order, and the merge below sorts by shard id anyway.
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        with ctx.Pool(processes=workers) as pool:
            results = pool.map(run_shard, payloads)
    run_wall = time.perf_counter() - run_wall0

    results.sort(key=lambda r: r.shard_id)

    merged_collector = results[0].collector
    merged_histogram = results[0].histogram
    for shard in results[1:]:
        merged_collector = merged_collector.merge(shard.collector)
        merged_histogram = merged_histogram.merge(shard.histogram)

    merged_hash = hashlib.sha256()
    for shard in results:
        merged_hash.update(f"{shard.shard_id}:{shard.dispatch_hash}\n".encode())
    merged_dispatch_hash = merged_hash.hexdigest()

    arrivals = sum(r.arrivals for r in results)
    window_ms = max((r.window_ms for r in results), default=0.0)
    all_green: Optional[bool] = None
    if config.scenario is not None:
        all_green = all(ok for r in results for _n, ok, _d in (r.verdicts or []))

    merged = {
        "population": config.population,
        "arrivals": arrivals,
        "offered_ops_per_s": (arrivals / window_ms * 1000.0) if window_ms else 0.0,
        "shed": sum(r.shed for r in results),
        "detailed": sum(r.detailed for r in results),
        "events": sum(r.events for r in results),
        "max_client_id": max((r.max_client_id for r in results), default=-1),
        "collector": merged_collector.summary(),
        "histogram": merged_histogram.as_dict(),
        "dispatch_hash": merged_dispatch_hash,
    }
    if all_green is not None:
        merged["all_green"] = all_green
        merged_hub = results[0].hub
        for shard in results[1:]:
            merged_hub = merged_hub.merge(shard.hub)
        merged["availability_timeline"] = merged_hub.availability()

    deterministic = {
        "schema": "repro-scale-v1",
        "config": _deterministic_config(config),
        "shards": [r.deterministic_dict() for r in results],
        "merged": merged,
    }
    artifact_hash = hashlib.sha256(
        _canonical_json(deterministic).encode()
    ).hexdigest()

    total_cpu = sum(r.cpu_s for r in results)
    build_wall = sum(r.build_wall_s for r in results)
    shard_wall = build_wall + sum(r.run_wall_s for r in results)
    aggregate_eps = sum(
        (r.events / r.cpu_s) for r in results if r.cpu_s > 0
    )
    timing = {
        "workers": workers,
        "usable_cpus": _usable_cpus(),
        "run_wall_s": round(run_wall, 4),
        "total_cpu_s": round(total_cpu, 4),
        # Share of the shards' own wall time spent before their engines start.
        "build_share": round(build_wall / shard_wall, 4) if shard_wall > 0 else 0.0,
        # A projection: the sum of per-shard window events per CPU-second.
        "aggregate_events_per_sec": round(aggregate_eps),
        # Measured: window events over the wall time of the whole run.
        "wall_events_per_sec": round(merged["events"] / run_wall) if run_wall > 0 else 0,
        "peak_shard_rss_mb": round(max((r.rss_mb for r in results), default=0.0), 1),
        "per_shard": [
            {
                "shard_id": r.shard_id,
                "cpu_s": round(r.cpu_s, 4),
                "wall_s": round(r.wall_s, 4),
                "build_wall_s": round(r.build_wall_s, 4),
                "run_wall_s": round(r.run_wall_s, 4),
                "rss_mb": round(r.rss_mb, 1),
                "events_per_cpu_sec": round(r.events / r.cpu_s) if r.cpu_s > 0 else 0,
            }
            for r in results
        ],
    }
    artifact = dict(deterministic)
    artifact["artifact_hash"] = artifact_hash
    artifact["timing"] = timing
    return artifact
