"""Schedule neutrality of the windowed sampler + SLO engine.

The time-series hub is dispatch-driven, never a kernel process: rolling
windows, sampling gauges and evaluating burn rates must not schedule
events, consume sequence numbers or draw from an RNG.  This test runs the
fault-free monitor scenario on every one of the nine paper setups twice —
telemetry off (plain ObsContext: only the driver feeds ``run_scenario``'s
own hub) and telemetry on (the hub on ``obs.timeseries``, so the metadata
servers feed it too, plus the full SLO bank) — and requires the dispatch
hashes to be bit-identical.

This is the monitored analogue of ``test_golden_schedule.py``; the run is
shortened (6 clients, 120ms of load) because only the schedule matters
here, not the alert outcomes.
"""

import pytest

from repro.chaos.scenarios import run_scenario
from repro.experiments.setups import SETUPS
from repro.obs import ObsContext
from repro.obs.detect import BASELINE_SCENARIO, monitor_slos
from repro.obs.slo import SloEngine
from repro.obs.timeseries import TimeSeriesHub

SEED = 7
CLIENTS = 6
LOAD_MS = 120.0


def _run(setup: str, telemetry: bool):
    obs = ObsContext()
    if telemetry:
        hub = TimeSeriesHub()
        obs.timeseries = hub
        SloEngine(monitor_slos(setup), hub, obs=obs, load_window_ms=LOAD_MS)
    result = run_scenario(BASELINE_SCENARIO, setup, seed=SEED, obs=obs,
                          clients=CLIENTS, load_ms=LOAD_MS)
    return result


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_sampler_on_off_dispatch_hash_identical(setup):
    off = _run(setup, telemetry=False)
    on = _run(setup, telemetry=True)
    assert on.dispatch_hash == off.dispatch_hash
    assert on.completed == off.completed
    assert on.failed == off.failed


def test_sampler_actually_sampled_something():
    # Guard against the neutrality test passing vacuously because the
    # instrumented sites never fed the hub.
    obs = ObsContext()
    hub = TimeSeriesHub()
    obs.timeseries = hub
    sealed = []
    hub.subscribe(lambda index, start, end, window: sealed.append(index))
    run_scenario(BASELINE_SCENARIO, "HopsFS-CL (3,3)", seed=SEED, obs=obs,
                 clients=CLIENTS, load_ms=LOAD_MS)
    names = set(hub.series)
    assert "client.ops" in names
    assert any(n.startswith("client.ops.az") for n in names)
    assert any(n.startswith("nn.handle.nn") for n in names)
    assert sealed == list(range(len(sealed))) and sealed
