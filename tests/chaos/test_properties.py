"""Property: any crash/recover schedule short of quorum loss converges.

Hypothesis draws random fault schedules — per NDB node group at most one
member crashes (so no group ever loses all replicas), plus optional block
datanode and namenode outages — and every schedule must end with the full
invariant catalogue green after recovery and drain.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import FaultSchedule, Scenario, run_scenario

_settings = settings(
    max_examples=5,
    deadline=None,
    derandomize=True,  # CI-stable: the draw sequence is fixed
    suppress_health_check=[HealthCheck.too_slow],
)

# One optional (crash_time, outage_len, member_rank) triple per fault site.
_crash = st.one_of(
    st.none(),
    st.tuples(
        st.floats(10.0, 120.0, allow_nan=False),
        st.floats(20.0, 100.0, allow_nan=False),
        st.integers(0, 7),
    ),
)


@given(group_crashes=st.tuples(_crash, _crash), bdn_crash=_crash, nn_crash=_crash)
@_settings
def test_random_sub_quorum_schedules_converge(group_crashes, bdn_crash, nn_crash):
    def build_schedule(target) -> FaultSchedule:
        schedule = FaultSchedule()
        groups = target.deployment.ndb.partition_map.node_groups
        for group, crash in zip(groups, group_crashes):
            if crash is None:
                continue
            t, hold, rank = crash
            victim = group[rank % len(group)]
            schedule.crash_node(t, str(victim))
            schedule.recover_node(t + hold, str(victim))
        if bdn_crash is not None:
            t, hold, rank = bdn_crash
            victim = target.deployment.block_datanodes[rank % len(target.deployment.block_datanodes)]
            schedule.crash_node(t, str(victim.addr))
            schedule.recover_node(t + hold, str(victim.addr))
        if nn_crash is not None:
            t, hold, rank = nn_crash
            victim = target.deployment.namenodes[rank % len(target.deployment.namenodes)]
            schedule.crash_node(t, str(victim.addr))
            schedule.recover_node(t + hold, str(victim.addr))
        # Belt and braces: whatever is still down comes back before the end.
        schedule.recover_all(235.0)
        return schedule

    scenario = Scenario(
        name="property-crashes",
        description="hypothesis-drawn sub-quorum crash/recover schedule",
        schedule_fn=build_schedule,
        load_ms=260.0,
        drain_ms=350.0,
        clients=6,
        seed_large_files=2,
    )
    result = run_scenario(scenario, setup="hopsfs-cl-3-3", num_servers=2, seed=13)
    assert result.all_green, [str(v) for v in result.verdicts if not v.ok]
    assert result.completed > 100  # the cluster kept serving throughout
