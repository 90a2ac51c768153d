"""Gray-failure scenarios: timeouts/hedging/shedding end to end.

These runs exercise the robust request path under chaos and pin the
determinism contract for it: retries, hedging, and admission control are
driven entirely by DES timers and named RNG streams, so the dispatch hash
is identical run-to-run and traced-vs-untraced.
"""

import pytest

from repro.chaos import SCENARIOS, run_scenario
from repro.chaos.invariants import deadline_compliance, exactly_once
from repro.hopsfs import RobustConfig
from repro.obs import ObsContext

_KW = dict(setup="hopsfs-cl-3-3", num_servers=2, seed=31, clients=6, load_ms=300.0)


def test_gray_scenarios_registered_with_robust_configs():
    for name in ("gray-degraded-link", "slow-az", "overload-burst"):
        assert name in SCENARIOS
        assert SCENARIOS[name].robust is not None
    # Legacy scenarios stay on the fail-stop path (their pinned chaos
    # fingerprints depend on it).
    for name in ("az-outage-under-load", "network-partition", "degraded-link"):
        assert SCENARIOS[name].robust is None


def test_gray_degraded_link_green_with_timeouts_firing():
    result = run_scenario("gray-degraded-link", **_KW)
    assert result.all_green, [str(v) for v in result.verdicts]
    target = result.extra["harness"]
    assert sum(c.timeouts for c in target.clients) > 0
    # Late replies from the slow link were discarded, never delivered.
    assert target.deployment.network.late_replies > 0
    names = [v.name for v in result.verdicts]
    assert "exactly-once" in names and "deadline-compliance" in names


def test_slow_az_green_and_hedging_fires_on_vanilla_hopsfs():
    # Vanilla HopsFS clients read cross-AZ (no AZ affinity), so a slow AZ
    # puts reads behind the degraded links — exactly what hedging is for.
    result = run_scenario(
        "slow-az", setup="hopsfs-3-3", num_servers=2, seed=31, clients=6,
        load_ms=300.0,
    )
    assert result.all_green, [str(v) for v in result.verdicts]
    target = result.extra["harness"]
    assert sum(c.hedges for c in target.clients) > 0


def test_overload_burst_sheds_and_replays_exactly_once():
    result = run_scenario(
        "overload-burst", setup="hopsfs-cl-3-3", num_servers=2, seed=31,
        clients=48, load_ms=250.0,
    )
    assert result.all_green, [str(v) for v in result.verdicts]
    target = result.extra["harness"]
    fs = target.deployment
    assert sum(nn.ops_shed for nn in fs.namenodes) > 0
    assert sum(c.busy_rejections for c in target.clients) > 0
    # Mutations were retried under the burst, none applied twice.
    assert len(fs.mutation_ledger) > 0
    assert exactly_once(fs).ok
    assert deadline_compliance(target).ok


def test_gray_scenario_schedule_neutral_under_tracing():
    untraced = run_scenario("gray-degraded-link", **_KW)
    traced = run_scenario("gray-degraded-link", obs=ObsContext(), **_KW)
    again = run_scenario("gray-degraded-link", **_KW)
    assert untraced.dispatch_hash == traced.dispatch_hash == again.dispatch_hash
    assert untraced.events == traced.events
    assert (untraced.completed, untraced.failed) == (traced.completed, traced.failed)


def test_gray_scenarios_run_on_cephfs_with_vacuous_robust_invariants():
    result = run_scenario(
        "overload-burst", setup="cephfs", num_servers=2, seed=31, clients=12,
        load_ms=200.0,
    )
    assert result.all_green, [str(v) for v in result.verdicts]
    # CephFS never opts in: the deadline invariant is vacuously green.
    verdict = next(v for v in result.verdicts if v.name == "deadline-compliance")
    assert verdict.ok


def test_latency_recovers_after_degrade_partition_and_restart():
    """Satellite: degrade + partition + NN restart, then back to baseline."""
    from repro.experiments.setups import CHAOS, SETUPS
    from repro.workloads.namespace import generate_namespace

    target = SETUPS["HopsFS-CL (3,3)"].build(
        3, seed=7, tuning=CHAOS, robust=RobustConfig()
    )
    env = target.env
    namespace = generate_namespace(
        num_top_dirs=1, dirs_per_top=4, files_per_dir=4, seed=7
    )
    target.install(namespace)
    (client,) = target.make_clients(1)
    paths = list(namespace.files[:8])

    def measure():
        latencies = []
        for path in paths:
            start = env.now
            yield from client.stat(path)
            latencies.append(env.now - start)
        return sorted(latencies)[len(latencies) // 2]

    def scenario():
        yield from target.ready()
        baseline = yield from measure()

        # Compound gray+fail-stop episode: a slow link, a partition that
        # heals, and a metadata-server bounce.
        azs = target.azs
        target.network.degrade_link(azs[0], azs[-1], extra_ms=20.0)
        target.network.partition_azs((azs[-1],), tuple(a for a in azs if a != azs[-1]))
        yield env.timeout(60)
        target.network.heal_partitions()
        target.on_heal()
        victim = target.deployment.namenodes[0]
        victim.shutdown()
        yield env.timeout(30)
        victim.restart()
        yield env.timeout(60)
        target.network.restore_links()
        yield env.timeout(100)  # settle: elections, breakers, reconnects

        recovered = yield from measure()
        return baseline, recovered

    baseline, recovered = env.run_process(scenario(), until=600_000)
    # Back to the pre-fault baseline (small absolute slack covers cache
    # warmth differences either way).
    assert recovered == pytest.approx(baseline, abs=0.5), (baseline, recovered)
