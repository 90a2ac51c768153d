"""Property: any interleaved join/leave/preempt churn sequence converges.

Hypothesis draws random membership-churn schedules — adds into arbitrary
AZs, graceful decommissions, and spot-style preemptions, interleaved at
30ms spacing — subject only to "never drop the serving pool below two".
Every sequence must end with exactly one leader, every surviving view
equal to the running id set (the ``membership-convergence`` invariant),
and no decommissioned NN having lost an ack it gave
(``drained-ack-integrity``).  Plus: both shipped elastic scenarios are
schedule-deterministic at test-size parameters.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import FaultSchedule, Scenario, run_scenario
from repro.hopsfs import ElasticConfig, RobustConfig

_settings = settings(
    max_examples=5,
    deadline=None,
    derandomize=True,  # CI-stable: the draw sequence is fixed
    suppress_health_check=[HealthCheck.too_slow],
)

# One churn step: join a drawn AZ, or retire/preempt a drawn rank of the
# currently-alive pool (the rank wraps, so every draw is meaningful).
_step = st.one_of(
    st.tuples(st.just("add"), st.integers(1, 3)),
    st.tuples(st.just("leave"), st.integers(0, 7)),
    st.tuples(st.just("preempt"), st.integers(0, 7)),
)

_ELASTIC = ElasticConfig(membership_refresh_ms=25.0, autoscale=False)


@given(steps=st.lists(_step, min_size=1, max_size=6))
@_settings
def test_random_churn_sequences_converge(steps):
    def build_schedule(target) -> FaultSchedule:
        schedule = FaultSchedule()
        # Predict the pool as the injector will evolve it: adds allocate
        # ids above the initial pool's maximum, in schedule order.
        alive = [str(nn.addr) for nn in target.deployment.namenodes]
        next_id = max(nn.nn_id for nn in target.deployment.namenodes) + 1
        t = 40.0
        for kind, arg in steps:
            if kind == "add":
                schedule.add_namenode(t, az=arg)
                alive.append(f"nn{next_id}")
                next_id += 1
            elif len(alive) > 2:  # keep the pool serving through drains
                victim = alive.pop(arg % len(alive))
                if kind == "leave":
                    schedule.decommission_namenode(t, victim)
                else:
                    schedule.preempt_namenode(t, victim, warning_ms=5.0)
            t += 30.0
        return schedule

    scenario = Scenario(
        name="property-churn",
        description="hypothesis-drawn join/leave/preempt interleaving",
        schedule_fn=build_schedule,
        load_ms=280.0,
        drain_ms=300.0,
        clients=6,
        seed_large_files=2,
        robust=RobustConfig(),
        elastic=_ELASTIC,
    )
    result = run_scenario(scenario, setup="hopsfs-cl-3-3", num_servers=3, seed=17)
    failures = [str(v) for v in result.verdicts if not v.ok]
    assert result.all_green, failures
    # The membership properties specifically — not just the catalogue.
    by_name = {v.name: v for v in result.verdicts}
    assert by_name["membership-convergence"].ok
    assert by_name["drained-ack-integrity"].ok
    assert result.completed > 100  # clients kept finding live NNs


_KW = dict(setup="hopsfs-cl-3-3", num_servers=3, seed=31, clients=6, load_ms=320.0)


def test_nn_churn_deterministic_and_green():
    a = run_scenario("nn-churn", **_KW)
    b = run_scenario("nn-churn", **_KW)
    assert a.all_green, [str(v) for v in a.verdicts if not v.ok]
    assert a.dispatch_hash == b.dispatch_hash
    assert a.elastic is not None
    assert a.elastic["reconfiguration_latency_ms"]["count"] >= 1
    assert a.elastic == b.elastic


def test_spot_preemption_storm_deterministic_and_green():
    a = run_scenario("spot-preemption-storm", **_KW)
    b = run_scenario("spot-preemption-storm", **_KW)
    assert a.all_green, [str(v) for v in a.verdicts if not v.ok]
    assert a.dispatch_hash == b.dispatch_hash
    # The autoscaler's replacement floor refilled preempted capacity.
    assert a.elastic is not None
    assert a.elastic["scale_ups"] >= 1
    assert a.elastic == b.elastic
