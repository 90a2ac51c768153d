"""Schedule neutrality: tracing must never perturb the event schedule.

The hard guarantee of the obs layer (see DESIGN.md "Observability") is
that attaching a tracer changes *nothing* about the simulation: the
kernel dispatches the exact same (time, priority, seq) sequence with
observability on and off.  These tests run the same deployment scenario
both ways with ``env.trace`` recording every dispatch, and require the
hashed schedules to be bit-identical — any instrumentation that consumes
an RNG draw, schedules an event, or burns a sequence number fails here.
"""

from collections import Counter

from repro.hopsfs import HopsFsConfig, build_hopsfs
from repro.hopsfs.listcache import ListingCache, ListingCacheConfig
from repro.metrics.collectors import MetricsCollector
from repro.ndb import NdbConfig
from repro.obs import ObsContext
from repro.obs.timeseries import TimeSeriesHub
from repro.sim import dispatch_hash
from repro.workloads import ClosedLoopDriver, SpotifyWorkload, generate_namespace
from repro.workloads.namespace import install_hopsfs


def _traced_run(with_obs: bool, seed: int = 5, listing_cache=None):
    fs = build_hopsfs(
        num_namenodes=2,
        azs=(1, 2, 3),
        az_aware=True,
        ndb_config=NdbConfig(num_datanodes=6, replication=3, az_aware=True),
        hopsfs_config=HopsFsConfig(
            election_period_ms=50.0, op_cost_read_ms=0.02, op_cost_mutation_ms=0.04,
            listing_cache=listing_cache,
        ),
        seed=seed,
    )
    env = fs.env
    env.trace = []  # record every dispatched (when, priority, seq)
    obs = None
    if with_obs:
        obs = ObsContext()
        if listing_cache is not None:
            obs.timeseries = TimeSeriesHub()
        obs.attach(env)
    namespace = generate_namespace(num_top_dirs=2, dirs_per_top=4, files_per_dir=8, seed=seed)
    install_hopsfs(fs, namespace)
    if listing_cache is not None:
        fs.prewarm_listing_caches()
    clients = [fs.client() for _ in range(8)]
    collector = MetricsCollector()
    collector.open_window(0)
    workload = SpotifyWorkload(namespace, seed=seed)
    driver = ClosedLoopDriver(env, clients, workload, collector)

    def scenario():
        yield from fs.await_election()
        driver.start()
        yield env.timeout(40)
        driver.stop()

    env.run_process(scenario(), until=120_000)
    collector.close_window(env.now)
    fingerprint = (
        len(env.trace),
        dispatch_hash(env.trace),
        collector.completed,
        collector.failed,
        repr(sum(collector.latencies_ms)),
        fs.network.traffic.messages,
        fs.network.traffic.total_bytes,
        tuple(sorted(fs.ndb.read_stats.by_replica.items())),
    )
    return fingerprint, obs


def test_tracing_is_schedule_neutral():
    base, _ = _traced_run(with_obs=False)
    traced, obs = _traced_run(with_obs=True)
    assert traced == base  # identical (time, priority, seq) dispatch trace
    assert len(obs.tracer.spans) > 0  # ...while actually having traced


def test_traced_run_captures_cross_layer_chain():
    """client.op -> rpc.fs_op -> nn.handle -> ndb.txn -> rpc.tc_* -> ndb.tc_*."""
    _fp, obs = _traced_run(with_obs=True)
    tracer = obs.tracer
    by_id = {s.span_id: s for s in tracer.spans}

    def chain(span):
        names = []
        while span is not None:
            names.append(span.name)
            span = by_id.get(span.parent_id)
        return list(reversed(names))

    chains = {tuple(chain(s)) for s in tracer.finished_spans()}
    assert ("client.op", "rpc.fs_op", "nn.handle", "ndb.txn", "rpc.tc_read",
            "ndb.tc_read") in chains
    # Commit leg of the same tree.
    assert ("client.op", "rpc.fs_op", "nn.handle", "ndb.txn", "rpc.tc_commit",
            "ndb.tc_commit") in chains
    # Spans nest in time within their parents.
    for span in tracer.finished_spans():
        parent = by_id.get(span.parent_id)
        if parent is not None and parent.finished and span.name != "ndb.lock.wait":
            assert span.start_ms >= parent.start_ms
            assert span.end_ms <= parent.end_ms + 1e-9


def test_traced_read_front_keeps_its_spans(monkeypatch):
    """A read-front hit ends as a handler-pool callback chain, not a task, and
    keeps its spans: one ``nn.handle`` per admitted op under its
    ``rpc.fs_op``, one ``nn.cache.serve`` child per probed hit, and the
    NN's ``nn.handle.<nn>`` latency series; tracing still moves nothing."""
    served = Counter()
    serve = ListingCache.serve

    def counting_serve(cache, op, kwargs, probe):
        served["probed hits"] += 1
        return serve(cache, op, kwargs, probe)

    monkeypatch.setattr(ListingCache, "serve", counting_serve)
    base, _ = _traced_run(with_obs=False, listing_cache=ListingCacheConfig())
    served.clear()
    traced, obs = _traced_run(with_obs=True, listing_cache=ListingCacheConfig())
    assert traced == base
    spans = obs.tracer.spans
    by_id = {s.span_id: s for s in spans}
    children = Counter((s.parent_id, s.name) for s in spans)
    calls = [s for s in spans if s.name == "rpc.fs_op"]
    handles = [s for s in spans if s.name == "nn.handle"]
    hits = [s for s in spans if s.name == "nn.cache.serve"]
    assert calls and all(children[(s.span_id, "nn.handle")] == 1 for s in calls)
    assert all(by_id[s.parent_id].name == "rpc.fs_op" for s in handles)
    # A probed hit's span closes where its probe is checked.
    assert sum(s.finished for s in hits) == served["probed hits"] > len(handles) // 2
    assert all(by_id[s.parent_id].name == "nn.handle" for s in hits)
    assert all(children[(s.span_id, "nn.cache.serve")] <= 1 for s in handles)
    # Both close: all but the ops still in flight when the run stopped.
    assert sum(not s.finished for s in handles) <= 8
    assert all(s.finished for s in hits if by_id[s.parent_id].finished)
    assert any(name.startswith("nn.handle.nn") for name in obs.timeseries.series)


def test_traced_run_populates_registry():
    _fp, obs = _traced_run(with_obs=True)
    snap = obs.registry.snapshot()
    assert snap["counters"]["net.rpc.intra_az"] > 0
    assert snap["counters"]["net.rpc.cross_az"] > 0
    assert snap["counters"]["net.rpc.cross_az_bytes"] > 0


# ----------------------------------------------------------- chaos neutrality
def _chaos_fingerprint(with_obs: bool):
    from repro.chaos import run_scenario

    obs = ObsContext() if with_obs else None
    result = run_scenario(
        "network-partition",
        setup="hopsfs-cl-3-3",
        num_servers=2,
        seed=17,
        clients=6,
        load_ms=300.0,
        obs=obs,
    )
    return result, obs


def test_chaos_run_is_schedule_neutral_under_tracing():
    """Fault injection preserves the obs guarantee: tracing a chaos run
    (spans around every fault, per-action counters) must not move a single
    kernel dispatch — same (time, priority, seq) hash traced or untraced."""
    base, _ = _chaos_fingerprint(with_obs=False)
    traced, obs = _chaos_fingerprint(with_obs=True)
    assert traced.dispatch_hash == base.dispatch_hash
    assert traced.events == base.events
    assert traced.fault_trace == base.fault_trace
    assert (traced.completed, traced.failed) == (base.completed, base.failed)
    # ...while actually having traced the faults.
    fault_spans = [s for s in obs.tracer.spans if s.name == "chaos.fault"]
    assert {s.tags["action"] for s in fault_spans} == {
        "partition",
        "heal",
        "recover_all",
    }
    counters = obs.registry.snapshot()["counters"]
    assert counters["chaos.fault.partition"] == 1
