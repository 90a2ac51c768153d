"""FaultInjector: schedule execution, relative timing, obs emission."""

from repro.chaos import FaultInjector, FaultSchedule, parse_node
from repro.experiments.setups import CHAOS, SETUPS
from repro.obs import ObsContext


def _run_injector(schedule, obs=None, lead_ms=25.0):
    target = SETUPS["HopsFS-CL (3,3)"].build(2, seed=7, tuning=CHAOS)
    env = target.env
    if obs is not None:
        obs.attach(env)
    injector = FaultInjector(target, schedule)

    def scenario():
        yield from target.ready()
        # Injector starts after election: schedule times are relative to here.
        yield env.timeout(lead_ms)
        yield injector.start()
        yield env.timeout(100)

    env.run_process(scenario(), until=120_000)
    return target, injector


def test_injector_executes_in_order_at_relative_times():
    schedule = FaultSchedule().crash_node(10, "ndbd5").recover_node(60, "ndbd5")
    target, injector = _run_injector(schedule)
    assert [action for _t, action, _d in injector.trace] == [
        "crash_node",
        "recover_node",
    ]
    crash_t, recover_t = (t for t, _a, _d in injector.trace)
    # Fired 10ms / 60ms after the injector started, not after t=0 — the
    # election lead time must have shifted both fire times.
    assert recover_t - crash_t >= 50.0
    assert crash_t >= 10.0 + 25.0
    assert target.is_running(parse_node("ndbd5"))


def test_injector_descriptions_name_the_nodes():
    schedule = FaultSchedule().az_outage(5, 3).az_heal(40, 3)
    _target, injector = _run_injector(schedule)
    down_detail = injector.trace[0][2]
    heal_detail = injector.trace[1][2]
    assert "az3" in down_detail and "ndbd" in down_detail
    assert "az3" in heal_detail


def test_injector_emits_spans_and_counters_when_traced():
    obs = ObsContext()
    schedule = FaultSchedule().crash_node(10, "ndbd5").recover_node(60, "ndbd5")
    _target, injector = _run_injector(schedule, obs=obs)
    fault_spans = [s for s in obs.tracer.spans if s.name == "chaos.fault"]
    assert len(fault_spans) == 2
    assert all(s.end_ms is not None for s in fault_spans)
    assert {s.tags["action"] for s in fault_spans} == {"crash_node", "recover_node"}
    counters = obs.registry.snapshot()["counters"]
    assert counters["chaos.fault.crash_node"] == 1
    assert counters["chaos.fault.recover_node"] == 1


def test_injector_emits_nothing_untraced():
    schedule = FaultSchedule().crash_node(10, "ndbd5").recover_node(60, "ndbd5")
    target, injector = _run_injector(schedule)
    assert target.env.obs is None
    assert len(injector.trace) == 2


def test_every_schedulable_action_is_executable():
    from repro.chaos import ACTIONS
    from repro.chaos.injector import _IMMEDIATE

    assert set(_IMMEDIATE) | {"recover_node", "az_heal", "recover_all"} == ACTIONS
