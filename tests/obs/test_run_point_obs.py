"""End-to-end: run_point(obs=...) wires the whole observability layer."""

import pytest

from repro.experiments import RunConfig, run_point
from repro.obs import ObsContext, chrome_trace, phase_breakdown, validate_chrome_trace

_CFG = RunConfig(warmup_ms=3.0, window_ms=3.0)


@pytest.fixture(autouse=True)
def _pin_bench_scale(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "1.0")


@pytest.fixture(scope="module")
def hopsfs_obs():
    obs = ObsContext()
    point = run_point("HopsFS-CL (3,3)", 3, config=_CFG, obs=obs)
    return point, obs


def test_obs_rides_back_on_result(hopsfs_obs):
    point, obs = hopsfs_obs
    assert point.extra["obs"] is obs
    assert len(obs.tracer.spans) > 0


def test_deployment_gauges_registered(hopsfs_obs):
    _point, obs = hopsfs_obs
    snap = obs.registry.snapshot()
    assert snap["gauges"]["nn.ops_served"] > 0
    for name in ("nn.ops_failed", "blocks.rereplications",
                 "ndb.active_transactions", "ndb.lock.timeouts",
                 "net.dropped_messages"):
        assert name in snap["gauges"]


def test_registry_reads_the_components_own_counters():
    """One count per event: the plain int the component keeps (tests and
    bench_e2e read it) is what ``snapshot()`` reports, under the metric name
    the hand-mirrored counter had."""
    obs = ObsContext()
    point = run_point("HopsFS-CL (3,3)", 3, config=_CFG, obs=obs, keep_collector=True)
    harness = point.extra["harness"]
    namenodes, clients = harness.deployment.namenodes, harness.clients
    snap = obs.registry.snapshot()
    gauges = snap["gauges"]
    assert gauges["nn.dircache.hit"] == sum(nn.dir_cache.hits for nn in namenodes) > 0
    assert gauges["nn.dircache.miss"] == sum(nn.dir_cache.misses for nn in namenodes)
    assert gauges["nn.shed"] == gauges["nn.ops_shed"] == sum(nn.ops_shed for nn in namenodes)
    assert gauges["nn.drain_rejected"] == 0
    for name, attr in (("failovers", "failovers"), ("timeouts", "timeouts"),
                       ("hedges", "hedges"), ("hedge_wins", "hedge_wins"),
                       ("busy_rejections", "busy_rejections"),
                       ("membership_refresh", "membership_refreshes")):
        assert gauges[f"client.{name}"] == sum(getattr(c, attr) for c in clients)
    # Nothing is counted twice: none of these names is also a counter.
    assert not set(gauges) & set(snap["counters"])
    assert "nn.listcache.hit" not in gauges  # listing cache off: not registered


def test_exported_trace_is_valid_and_has_breakdown(hopsfs_obs):
    _point, obs = hopsfs_obs
    doc = chrome_trace(obs.tracer)
    assert validate_chrome_trace(doc) == []
    bd = phase_breakdown(obs.tracer)
    assert bd, "no finished operations in trace"
    total_metadata = sum(b.metadata_ms for b in bd.values())
    assert total_metadata > 0


def test_cephfs_point_traces_mds_path():
    obs = ObsContext()
    run_point("CephFS", 3, config=RunConfig(warmup_ms=10.0, window_ms=5.0), obs=obs)
    names = {s.name for s in obs.tracer.spans}
    assert {"kclient.op", "rpc.mds_op", "mds.handle"} <= names
    snap = obs.registry.snapshot()
    assert "mds.ops_served" in snap["gauges"]
    assert validate_chrome_trace(chrome_trace(obs.tracer)) == []
