"""Named chaos scenarios: schedule + workload + verification, end to end.

A scenario runs the Spotify mix against a chaos-tuned deployment while a
:class:`FaultInjector` executes its fault schedule, then drains in-flight
work and verifies the full invariant catalogue.  Results carry the
availability timeline, the executed fault trace, the invariant verdicts,
and the kernel dispatch hash (same scenario + setup + seed ⇒ identical
hash, traced or untraced — the determinism contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import ReproError, UnsupportedError
from ..experiments.setups import CHAOS, PATHS, SETUPS, Harness, resolve_setup
from ..hopsfs.elastic import ElasticConfig, elastic_summary
from ..hopsfs.groupcommit import AsyncCommitConfig
from ..hopsfs.listcache import ListingCacheConfig
from ..hopsfs.robust import RobustConfig
from ..metrics.collectors import MetricsCollector
from ..obs.timeseries import TimeSeriesHub
from ..sim import DispatchHash
from ..workloads.driver import ClosedLoopDriver
from ..workloads.namespace import generate_namespace
from ..workloads.spotify import SpotifyWorkload
from .injector import FaultInjector
from .invariants import InvariantVerdict, verify_target
from .schedule import FaultSchedule

__all__ = [
    "Scenario",
    "SCENARIOS",
    "ChaosRunResult",
    "run_scenario",
    "run_elastic_comparison",
]


@dataclass(frozen=True)
class Scenario:
    """One named fault-injection experiment."""

    name: str
    description: str
    # Builds the schedule against the live deployment (so it can name its
    # AZs and metadata servers).
    schedule_fn: Callable[[Harness], FaultSchedule]
    load_ms: float = 420.0  # workload runs this long (sim ms)
    drain_ms: float = 400.0  # quiesce window after the workload stops
    clients: int = 12
    seed_large_files: int = 3  # HopsFS: pre-fault block-layer payloads
    # Gray-failure scenarios opt the HopsFS request path into timeouts,
    # deadlines, hedging, the retry cache, and admission control; ``None``
    # runs the fail-stop client (CephFS setups always ignore it).
    robust: Optional[RobustConfig] = None
    # Async group-commit scenarios opt HopsFS metadata mutations into the
    # early-ack batch path; crashes then race acks against batch commits
    # and the durability-horizon invariant audits every batch's fate.
    async_commit: Optional[AsyncCommitConfig] = None
    # Elastic scenarios opt HopsFS into runtime pool reconfiguration:
    # clients refresh membership from the leader view, and (when
    # ``autoscale``) a load-driven autoscaler grows/shrinks the NN pool.
    elastic: Optional[ElasticConfig] = None
    # Listing-cache scenarios opt HopsFS reads into the pre-materialized
    # listing/attr cache; the listing-consistency invariant then audits
    # every live cache entry against committed NDB state.
    listing_cache: Optional[ListingCacheConfig] = None
    # What the scenario needs of a setup, checked before anything is built:
    # AZs to cut or slow between, or (``stack="hopsfs"``) stateless
    # metadata servers that can join and leave at runtime.
    min_azs: int = 1
    stack: Optional[str] = None

    def paths(self) -> dict:
        """The opt-in serving paths this scenario's deployment is built with."""
        return {name: getattr(self, name, None) for name in PATHS}

    def unsupported_on(self, spec) -> Optional[str]:
        """Why ``spec`` cannot run this scenario; None when it can."""
        if self.stack is not None and spec.kind != self.stack:
            return f"{spec.name}: elastic NN membership is HopsFS-only"
        if len(spec.azs) < self.min_azs:
            spans = "one AZ" if len(spec.azs) == 1 else f"{len(spec.azs)} AZs"
            return f"{spec.name} spans {spans}; {self.name} needs {self.min_azs}"
        return None

    def require(self, spec) -> None:
        reason = self.unsupported_on(spec)
        if reason is not None:
            raise UnsupportedError(reason)


def _az_outage_schedule(harness: Harness) -> FaultSchedule:
    az = harness.azs[-1]
    return FaultSchedule().az_outage(60.0, az).az_heal(220.0, az)


def _rolling_restarts_schedule(harness: Harness) -> FaultSchedule:
    schedule = FaultSchedule()
    t = 60.0
    for node in harness.server_node_ids():
        schedule.crash_node(t, node)
        schedule.recover_node(t + 40.0, node)
        t += 80.0
    return schedule


def _partition_schedule(harness: Harness) -> FaultSchedule:
    # Isolate the last AZ; the arbitrator (lowest-loaded AZ, ties to the
    # lowest id) stays on the majority side, which therefore wins.
    minority = (harness.azs[-1],)
    majority = tuple(az for az in harness.azs if az != harness.azs[-1])
    return (
        FaultSchedule()
        .partition(60.0, minority, majority)
        .heal(260.0)
        .recover_all(261.0)
    )


def _degraded_link_schedule(harness: Harness) -> FaultSchedule:
    return (
        FaultSchedule()
        .degrade_link(60.0, harness.azs[0], harness.azs[-1], extra_ms=5.0)
        .restore_links(260.0)
    )


def _gray_degraded_link_schedule(harness: Harness) -> FaultSchedule:
    """A link so slow it looks dead to a bounded RPC, yet never drops."""
    return (
        FaultSchedule()
        .degrade_link(60.0, harness.azs[0], harness.azs[-1], extra_ms=50.0)
        .restore_links(260.0)
    )


def _slow_az_schedule(harness: Harness) -> FaultSchedule:
    """Every link touching one AZ degrades: the AZ is up but sluggish."""
    slow = harness.azs[-1]
    schedule = FaultSchedule()
    for az in harness.azs:
        if az != slow:
            schedule.degrade_link(60.0, az, slow, extra_ms=25.0)
    schedule.restore_links(260.0)
    return schedule


def _overload_burst_schedule(harness: Harness) -> FaultSchedule:
    """Crash one metadata server while a client burst saturates the rest."""
    victim = harness.server_node_ids()[0]
    return FaultSchedule().crash_node(60.0, victim).recover_node(200.0, victim)


def _async_commit_crash_schedule(harness: Harness) -> FaultSchedule:
    """Crash metadata servers while group-commit batches are lingering.

    Two staggered NN crashes maximise the odds of catching a batch between
    early ack and NDB commit (the ``lost`` state); the durability-horizon
    invariant then audits that every lost batch applied atomically and no
    fsync vouched for an uncommitted horizon.
    """
    servers = harness.server_node_ids()
    schedule = FaultSchedule()
    schedule.crash_node(60.0, servers[0]).recover_node(160.0, servers[0])
    if len(servers) > 1:
        schedule.crash_node(230.0, servers[1]).recover_node(330.0, servers[1])
    return schedule


def _nn_churn_schedule(harness: Harness) -> FaultSchedule:
    """Continuous join/leave: grow, then rotate every original NN out."""
    servers = harness.server_node_ids()
    schedule = FaultSchedule().add_namenode(40.0)
    schedule.decommission_namenode(90.0, servers[0])
    schedule.add_namenode(140.0)
    if len(servers) > 1:
        schedule.decommission_namenode(190.0, servers[1])
    schedule.add_namenode(240.0)
    if len(servers) > 2:
        schedule.decommission_namenode(290.0, servers[2])
    return schedule


def _spot_preemption_storm_schedule(harness: Harness) -> FaultSchedule:
    """Spot kills take out every original NN, staggered, with 5ms warnings."""
    schedule = FaultSchedule()
    t = 60.0
    for node in harness.server_node_ids():
        schedule.preempt_namenode(t, node, warning_ms=5.0)
        t += 90.0
    return schedule


# Elastic scenario configs: fast membership refresh so clients track the
# churn, and (for the storm) an autoscaler whose per-AZ floor provisions
# replacements for preempted capacity.  max == min pins the pool at the
# floor so the storm's only scale-ups are preemption replacements.
_CHURN_ELASTIC = ElasticConfig(autoscale=False, membership_refresh_ms=25.0)
_STORM_ELASTIC = ElasticConfig(
    membership_refresh_ms=25.0,
    autoscale_interval_ms=20.0,
    cooldown_ms=40.0,
    min_nns_per_az=1,
    max_nns_per_az=2,
)


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "az-outage-under-load",
            "full AZ outage at t=60ms, healed at t=220ms, under the Spotify mix",
            _az_outage_schedule,
        ),
        Scenario(
            "rolling-namenode-restarts",
            "crash and restart each metadata server in turn (40ms outages)",
            _rolling_restarts_schedule,
            load_ms=420.0,
            drain_ms=300.0,
        ),
        Scenario(
            "network-partition",
            "isolate one AZ at t=60ms; heal and recover losers at t=260ms",
            _partition_schedule,
            min_azs=2,
        ),
        Scenario(
            "degraded-link",
            "add 5ms latency on one inter-AZ path between t=60ms and t=260ms",
            _degraded_link_schedule,
            drain_ms=200.0,
            min_azs=2,
        ),
        Scenario(
            "gray-degraded-link",
            "one inter-AZ path gains 50ms (slower than the RPC timeout) "
            "between t=60ms and t=260ms; robust clients time out and route around",
            _gray_degraded_link_schedule,
            drain_ms=300.0,
            robust=RobustConfig(),
            min_azs=2,
        ),
        Scenario(
            "slow-az",
            "every link into one AZ gains 25ms between t=60ms and t=260ms; "
            "hedged reads and breakers keep latency near baseline",
            _slow_az_schedule,
            drain_ms=300.0,
            robust=RobustConfig(),
            min_azs=2,
        ),
        Scenario(
            "overload-burst",
            "a 96-client burst while one metadata server is down; admission "
            "control sheds, retried mutations replay exactly once",
            _overload_burst_schedule,
            clients=96,
            drain_ms=300.0,
            robust=RobustConfig(nn_max_inflight=24),
        ),
        Scenario(
            "async-commit-crash",
            "crash metadata servers mid-linger on the async group-commit "
            "path; acked-but-uncommitted batches settle as lost and the "
            "durability-horizon invariant audits their atomicity",
            _async_commit_crash_schedule,
            drain_ms=300.0,
            robust=RobustConfig(),
            async_commit=AsyncCommitConfig(linger_ms=2.0, max_batch_ops=24),
        ),
        Scenario(
            "nn-churn",
            "NNs join and leave continuously: three adds interleaved with "
            "three graceful decommissions while clients follow the "
            "leader-maintained membership view",
            _nn_churn_schedule,
            drain_ms=400.0,
            robust=RobustConfig(),
            async_commit=AsyncCommitConfig(linger_ms=2.0, max_batch_ops=24),
            elastic=_CHURN_ELASTIC,
            stack="hopsfs",
        ),
        Scenario(
            "spot-preemption-storm",
            "spot-style preemptions (5ms warning) take out every original "
            "NN in turn; the autoscaler's per-AZ floor provisions "
            "replacements and clients keep availability green via "
            "membership refresh",
            _spot_preemption_storm_schedule,
            drain_ms=400.0,
            robust=RobustConfig(),
            elastic=_STORM_ELASTIC,
            stack="hopsfs",
        ),
    )
}


@dataclass
class ChaosRunResult:
    """Everything a chaos scenario run produced."""

    scenario: str
    setup: str
    seed: int
    schedule: list[dict]
    fault_trace: list[tuple[float, str, str]]
    timeline: list[dict]
    verdicts: list[InvariantVerdict]
    completed: int
    failed: int
    events: int
    dispatch_hash: str
    # Elastic runs only: reconfiguration log + latency stats and the
    # cost-normalized throughput (ops/s per NN·second provisioned).
    elastic: Optional[dict] = None
    extra: dict = field(default_factory=dict)

    @property
    def all_green(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "setup": self.setup,
            "seed": self.seed,
            "schedule": self.schedule,
            "fault_trace": [list(entry) for entry in self.fault_trace],
            "timeline": self.timeline,
            "invariants": [
                {"name": v.name, "ok": v.ok, "detail": v.detail} for v in self.verdicts
            ],
            "completed": self.completed,
            "failed": self.failed,
            "events": self.events,
            "dispatch_hash": self.dispatch_hash,
            "all_green": self.all_green,
            **({"elastic": self.elastic} if self.elastic is not None else {}),
        }

    def render(self) -> str:
        """Human-readable availability timeline plus invariant verdicts."""
        lines = [
            f"scenario:  {self.scenario}",
            f"setup:     {self.setup} (seed {self.seed})",
            f"ops:       {self.completed} completed, {self.failed} failed",
            f"dispatch:  {self.events} events, hash {self.dispatch_hash[:16]}…",
            "",
            "faults:",
        ]
        for when, action, detail in self.fault_trace:
            lines.append(f"  t={when:8.1f}ms  {action:<14} {detail}")
        lines.append("")
        lines.append("availability timeline:")
        lines.append("  t(ms)      ok fail  avail")
        for row in self.timeline:
            avail = row["availability"]
            if avail is None:
                bar, pct = "(idle)", "  --  "
            else:
                bar = "#" * round(avail * 20)
                pct = f"{avail * 100:5.1f}%"
            lines.append(
                f"  {row['t_ms']:8.0f} {row['ok']:4d} {row['failed']:4d}  {pct} {bar}"
            )
        lines.append("")
        lines.append("invariants:")
        for verdict in self.verdicts:
            lines.append(f"  {verdict}")
        return "\n".join(lines)


def run_scenario(
    scenario: str | Scenario,
    setup: str = "HopsFS-CL (3,3)",
    num_servers: int = 3,
    seed: int = 99,
    obs=None,
    clients: Optional[int] = None,
    load_ms: Optional[float] = None,
) -> ChaosRunResult:
    """Run one named scenario against one setup; returns the full result.

    ``clients`` / ``load_ms`` override the scenario defaults (tests use
    smaller values to keep the suite fast).  Pass an
    :class:`repro.obs.ObsContext` as ``obs`` to trace the run — tracing is
    schedule-neutral, so the dispatch hash must not change.  The driver
    feeds every op to a :class:`TimeSeriesHub` (``obs.timeseries`` when the
    caller set one); ``timeline`` is its availability view.
    """
    if isinstance(scenario, str):
        if scenario not in SCENARIOS:
            raise ReproError(
                f"unknown scenario {scenario!r} (have: {', '.join(sorted(SCENARIOS))})"
            )
        scenario = SCENARIOS[scenario]
    n_clients = clients if clients is not None else scenario.clients
    run_ms = load_ms if load_ms is not None else scenario.load_ms

    spec = SETUPS[resolve_setup(setup)]
    scenario.require(spec)
    harness = spec.build(num_servers, seed=seed, tuning=CHAOS, **scenario.paths())
    env = harness.env
    env.trace = DispatchHash()  # every dispatched (when, priority, seq), hashed as it goes
    if obs is not None:
        obs.attach(env)
        # Callable-backed gauges over live deployment counters.
        from ..obs import register_deployment_metrics

        register_deployment_metrics(obs, harness)

    namespace = generate_namespace(
        num_top_dirs=2, dirs_per_top=6, files_per_dir=6, seed=seed
    )
    harness.install(namespace)
    schedule = scenario.schedule_fn(harness)
    if schedule.end_ms() > run_ms:
        raise ReproError(
            f"{scenario.name}: schedule runs to {schedule.end_ms()}ms "
            f"but the load window is only {run_ms}ms"
        )
    injector = FaultInjector(harness, schedule)
    hub = obs.timeseries if obs is not None else None
    if hub is None:
        hub = TimeSeriesHub()
    collector = MetricsCollector()
    collector.open_window(0)
    client_list = harness.make_clients(n_clients)
    workload = SpotifyWorkload(namespace, seed=seed)
    driver = ClosedLoopDriver(env, client_list, workload, collector, hub=hub)

    def scenario_proc():
        yield from harness.ready()
        yield from harness.seed_blocks(scenario.seed_large_files)
        start = env.now
        driver.start()
        fault_proc = injector.start()
        yield fault_proc
        remaining = start + run_ms - env.now
        if remaining > 0:
            yield env.timeout(remaining)
        driver.stop()
        yield env.timeout(scenario.drain_ms)

    env.run_process(scenario_proc(), until=600_000)
    collector.close_window(env.now)
    hub.finalize(env.now)

    result = ChaosRunResult(
        scenario=scenario.name,
        setup=harness.spec.name,
        seed=seed,
        schedule=schedule.to_dicts(),
        fault_trace=list(injector.trace),
        timeline=hub.availability(),
        verdicts=verify_target(harness),
        completed=collector.completed,
        failed=collector.failed,
        events=env._seq,
        dispatch_hash=env.trace.hexdigest(),
    )
    if scenario.elastic is not None and harness.spec.kind == "hopsfs":
        result.elastic = elastic_summary(harness.deployment, collector.completed, env.now)
    result.extra["harness"] = harness
    result.extra["collector"] = collector
    return result


def run_elastic_comparison(
    setup: str = "HopsFS-CL (3,3)",
    num_servers: int = 6,
    seed: int = 99,
    clients: int = 6,
    load_ms: float = 300.0,
) -> dict:
    """Fixed-pool vs autoscaled cost-normalized throughput, same workload.

    Both legs run the identical Spotify mix (fault-free) on an
    over-provisioned pool of ``num_servers`` NNs.  The fixed leg keeps
    every NN for the whole run; the autoscaled leg lets the scale-in
    policy retire idle NNs to the per-AZ floor, so the same completed-op
    count is bought with fewer NN·seconds.  Each leg reports its own
    dispatch hash — both are deterministic, rerun-identical artifacts.
    """

    def _no_faults(harness: Harness) -> FaultSchedule:
        return FaultSchedule()

    legs = {
        "fixed": Scenario(
            "elastic-fixed",
            "over-provisioned fixed NN pool (cost baseline)",
            _no_faults,
            load_ms=load_ms,
            drain_ms=200.0,
            clients=clients,
            robust=RobustConfig(),
            elastic=ElasticConfig(autoscale=False),
            stack="hopsfs",
        ),
        "autoscaled": Scenario(
            "elastic-autoscaled",
            "same load; the autoscaler retires idle NNs to the per-AZ floor",
            _no_faults,
            load_ms=load_ms,
            drain_ms=200.0,
            clients=clients,
            robust=RobustConfig(),
            elastic=ElasticConfig(
                autoscale_interval_ms=20.0,
                cooldown_ms=40.0,
                min_nns_per_az=1,
                max_nns_per_az=2,
                scale_down_utilization=0.05,
            ),
            stack="hopsfs",
        ),
    }
    out = {"setup": setup, "num_servers": num_servers, "seed": seed, "legs": {}}
    for key, leg in legs.items():
        result = run_scenario(
            leg, setup=setup, num_servers=num_servers, seed=seed
        )
        out["legs"][key] = {
            "scenario": leg.name,
            "completed": result.completed,
            "failed": result.failed,
            "all_green": result.all_green,
            "dispatch_hash": result.dispatch_hash,
            "elastic": result.elastic,
        }
        out["setup"] = result.setup
    fixed = out["legs"]["fixed"]["elastic"]
    autoscaled = out["legs"]["autoscaled"]["elastic"]
    if fixed and autoscaled and fixed["ops_per_nn_second"]:
        out["cost_efficiency_gain"] = (
            (autoscaled["ops_per_nn_second"] or 0.0) / fixed["ops_per_nn_second"]
        )
    return out
