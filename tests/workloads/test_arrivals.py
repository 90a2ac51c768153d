"""Zipf population sampler and aggregated arrival engine."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.metrics.collectors import MetricsCollector
from repro.sim import Environment, RngRegistry
from repro.types import OpType
from repro.workloads import AggregatedArrivalEngine, ZipfPopulation


# -- ZipfPopulation ----------------------------------------------------------

def test_zipf_deterministic_under_fixed_seed():
    a = ZipfPopulation(1_000_000, 1.05, random.Random(42))
    b = ZipfPopulation(1_000_000, 1.05, random.Random(42))
    assert [a.sample() for _ in range(2000)] == [b.sample() for _ in range(2000)]


def test_zipf_seed_changes_sequence():
    a = ZipfPopulation(10_000, 1.05, random.Random(1))
    b = ZipfPopulation(10_000, 1.05, random.Random(2))
    assert [a.sample() for _ in range(200)] != [b.sample() for _ in range(200)]


def test_zipf_top_one_percent_share_matches_closed_form():
    n = 10_000
    pop = ZipfPopulation(n, 1.05, random.Random(7))
    draws = 60_000
    top = n // 100
    hits = sum(1 for _ in range(draws) if pop.sample() < top)
    expected = pop.expected_top_share(top)
    observed = hits / draws
    # The top 1% must carry hotspot-heavy traffic, and match the harmonic
    # closed form within sampling noise (3-sigma-ish at 60k draws).
    assert expected > 0.4
    assert observed == pytest.approx(expected, abs=0.02)


def test_zipf_rank_one_is_hottest():
    pop = ZipfPopulation(1000, 1.2, random.Random(3))
    counts = [0] * 1000
    for _ in range(30_000):
        counts[pop.sample()] += 1
    assert counts[0] == max(counts)
    assert counts[0] / 30_000 == pytest.approx(
        pop.expected_top_share(1), abs=0.02
    )


def test_zipf_expected_top_share_is_monotone_and_bounded():
    pop = ZipfPopulation(5000, 1.05, random.Random(0))
    shares = [pop.expected_top_share(m) for m in (1, 10, 100, 5000)]
    assert shares == sorted(shares)
    assert shares[-1] == pytest.approx(1.0)


def test_zipf_rejects_bad_parameters():
    with pytest.raises(ReproError):
        ZipfPopulation(0, 1.0, random.Random(0))
    with pytest.raises(ReproError):
        ZipfPopulation(10, 0.0, random.Random(0))
    with pytest.raises(ReproError):
        ZipfPopulation(10, -1.0, random.Random(0))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=2_000_000),
    s=st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_zipf_ids_always_in_range(n, s, seed):
    pop = ZipfPopulation(n, s, random.Random(seed))
    for _ in range(50):
        k = pop.sample()
        assert 0 <= k < n
        assert isinstance(k, int)


def test_zipf_single_client_population():
    pop = ZipfPopulation(1, 1.05, random.Random(0))
    assert all(pop.sample() == 0 for _ in range(100))


# -- AggregatedArrivalEngine -------------------------------------------------

class _FakeStub:
    """Client stub that sleeps a fixed service time per op."""

    def __init__(self, env, service_ms=0.5, fail_with=None):
        self.env = env
        self.service_ms = service_ms
        self.fail_with = fail_with
        self.ops = 0
        self.last_op_failures = 0

    def run(self, op, kwargs):
        yield self.env.timeout(self.service_ms)
        self.ops += 1
        if self.fail_with is not None:
            raise self.fail_with


class _FakeWorkload:
    def __init__(self):
        self.client_ids = []

    def next_op(self, client_id=None):
        self.client_ids.append(client_id)
        return OpType.STAT, {"path": "/x"}


def _engine(env, *, stubs=None, detail_every=4, max_inflight=64,
            rate_per_ms=10.0, population=1000, shard=0):
    rng = RngRegistry(seed=0).for_shard(shard)
    collector = MetricsCollector()
    collector.open_window(0.0)
    workload = _FakeWorkload()
    engine = AggregatedArrivalEngine(
        env,
        stubs if stubs is not None else [_FakeStub(env)],
        workload,
        collector,
        ZipfPopulation(population, 1.05, rng.stream("population")),
        rate_per_ms,
        rng.stream("arrivals"),
        detail_every=detail_every,
        max_inflight=max_inflight,
    )
    return engine, collector, workload


def test_engine_accounts_arrivals_and_details():
    env = Environment()
    engine, collector, workload = _engine(env)
    engine.start()
    env.run(until=100.0)
    engine.stop()
    env.run(until=110.0)
    # ~10/ms * 100ms = ~1000 arrivals, 1-in-4 detailed.
    assert 800 < engine.arrivals < 1200
    assert engine.detailed > 0
    assert engine.detailed <= engine.arrivals // 4 + 1
    assert collector.completed == engine.detailed
    assert len(engine.distinct_clients) > 1
    assert engine.max_client_id == max(engine.distinct_clients)
    # every detailed op carried a sampled client identity
    assert all(cid is not None for cid in workload.client_ids)


def test_engine_sheds_when_inflight_cap_hit():
    env = Environment()
    # Service time far longer than the run: every detailed op stays in
    # flight, so the cap (1) forces shedding after the first sample.
    slow = _FakeStub(env, service_ms=10_000.0)
    engine, _, _ = _engine(env, stubs=[slow], detail_every=2, max_inflight=1)
    engine.start()
    env.run(until=50.0)
    assert engine.inflight == 1
    assert engine.shed > 0
    # offered load is still fully accounted even when detail is shed
    assert engine.offered_ops() == engine.arrivals


def test_engine_records_expected_errors_as_failures():
    from repro.errors import FsError

    env = Environment()
    failing = _FakeStub(env, fail_with=FsError("boom"))
    engine, collector, _ = _engine(env, stubs=[failing], detail_every=2)
    engine.start()
    env.run(until=50.0)
    engine.stop()
    env.run(until=60.0)
    assert collector.failed > 0
    assert collector.completed == 0
    assert engine.inflight == 0


def test_engine_round_robins_stubs():
    env = Environment()
    stubs = [_FakeStub(env) for _ in range(3)]
    engine, _, _ = _engine(env, stubs=stubs, detail_every=1)
    engine.start()
    env.run(until=30.0)
    engine.stop()
    env.run(until=40.0)
    assert all(s.ops > 0 for s in stubs)
    assert max(s.ops for s in stubs) - min(s.ops for s in stubs) <= 1


def test_engine_rejects_bad_config():
    env = Environment()
    rng = RngRegistry(seed=0)
    pop = ZipfPopulation(10, 1.0, rng.stream("p"))
    collector = MetricsCollector()
    with pytest.raises(ReproError):
        AggregatedArrivalEngine(
            env, [], _FakeWorkload(), collector, pop, 1.0, rng.stream("a")
        )
    with pytest.raises(ReproError):
        AggregatedArrivalEngine(
            env, [_FakeStub(env)], _FakeWorkload(), collector, pop, 0.0,
            rng.stream("a"),
        )
    with pytest.raises(ReproError):
        AggregatedArrivalEngine(
            env, [_FakeStub(env)], _FakeWorkload(), collector, pop, 1.0,
            rng.stream("a"), detail_every=0,
        )


# -- shard independence (regression) -----------------------------------------

def _shard_arrival_trace(shard_id, n=64):
    """First ``n`` (gap, client_id) pairs shard ``shard_id`` would draw."""
    rng = RngRegistry(seed=0).for_shard(shard_id)
    pop = ZipfPopulation(100_000, 1.05, rng.stream("population"))
    gaps = rng.stream("arrivals")
    return [(gaps.expovariate(1.0), pop.sample()) for _ in range(n)]


def test_two_shards_never_produce_identical_arrival_sequences():
    traces = {sid: _shard_arrival_trace(sid) for sid in range(8)}
    for a in range(8):
        for b in range(a + 1, 8):
            assert traces[a] != traces[b], f"shards {a} and {b} collided"


def test_shard_arrival_sequence_is_reproducible():
    assert _shard_arrival_trace(3) == _shard_arrival_trace(3)
