"""Golden determinism tests for the sharded scale engine."""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.experiments.scale import ScaleConfig, run_scale, run_shard

# Small but real: two shards over the full stack, ~a second of wall time.
TEST_CONFIG = ScaleConfig(
    population=50_000,
    rate_ops_per_ms=50.0,
    duration_ms=20.0,
    warmup_ms=5.0,
    drain_ms=10.0,
    shards=2,
    workers=1,
    seed=0,
)


@pytest.fixture(scope="module")
def artifact():
    return run_scale(TEST_CONFIG)


def _hash_deterministic(doc: dict) -> str:
    deterministic = {k: doc[k] for k in ("schema", "config", "shards", "merged")}
    return hashlib.sha256(
        json.dumps(deterministic, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def test_artifact_structure(artifact):
    assert artifact["schema"] == "repro-scale-v1"
    assert len(artifact["shards"]) == 2
    merged = artifact["merged"]
    assert merged["arrivals"] == sum(s["arrivals"] for s in artifact["shards"])
    assert merged["events"] == sum(s["events"] for s in artifact["shards"])
    assert merged["detailed"] == sum(s["detailed"] for s in artifact["shards"])
    assert merged["offered_ops_per_s"] > 0
    assert merged["collector"]["completed"] > 0
    assert merged["histogram"]["count"] == merged["collector"]["completed"]
    # hash covers exactly the deterministic sections, nothing machine-local
    assert artifact["artifact_hash"] == _hash_deterministic(artifact)
    assert "timing" in artifact and "aggregate_events_per_sec" in artifact["timing"]


def test_build_and_run_wall_time_live_in_the_unhashed_timing_section(artifact):
    timing = artifact["timing"]
    for shard in timing["per_shard"]:
        assert shard["build_wall_s"] > 0 and shard["run_wall_s"] >= shard["wall_s"] > 0
    built = sum(s["build_wall_s"] for s in timing["per_shard"])
    ran = sum(s["run_wall_s"] for s in timing["per_shard"])
    # Every time above is rounded to 0.1 ms and these shards take ~20 ms, so
    # the share recomputed from them is only that exact: n * 0.05 ms of error
    # in each sum moves it by at most n * 0.05 ms / (built + ran).
    rounding = len(timing["per_shard"]) * 5e-5 / (built + ran) + 5e-5
    assert timing["build_share"] == pytest.approx(built / (built + ran), abs=rounding)
    # One worker: the pool's wall time covers every shard's build and run.
    assert timing["run_wall_s"] >= (built + ran) * 0.99
    hashed = json.dumps({k: artifact[k] for k in ("config", "shards", "merged")})
    assert "build_wall_s" not in hashed and "build_share" not in hashed


def test_bit_identical_across_runs(artifact):
    again = run_scale(TEST_CONFIG)
    assert again["artifact_hash"] == artifact["artifact_hash"]
    assert again["merged"]["dispatch_hash"] == artifact["merged"]["dispatch_hash"]


def test_artifact_invariant_to_worker_count(artifact):
    forked = run_scale(replace(TEST_CONFIG, workers=2))
    assert forked["artifact_hash"] == artifact["artifact_hash"]
    assert forked["merged"] == artifact["merged"]
    # but worker count is honestly recorded in the unhashed timing section
    assert forked["timing"]["workers"] == 2


def test_seed_changes_artifact(artifact):
    other = run_scale(replace(TEST_CONFIG, seed=1))
    assert other["artifact_hash"] != artifact["artifact_hash"]
    assert other["merged"]["dispatch_hash"] != artifact["merged"]["dispatch_hash"]


def test_shards_have_distinct_streams(artifact):
    hashes = [s["dispatch_hash"] for s in artifact["shards"]]
    assert len(set(hashes)) == len(hashes)
    ids = [s["shard_id"] for s in artifact["shards"]]
    assert ids == sorted(ids)


def test_merged_dispatch_hash_is_fold_of_shards(artifact):
    h = hashlib.sha256()
    for s in artifact["shards"]:
        h.update(f"{s['shard_id']}:{s['dispatch_hash']}\n".encode())
    assert artifact["merged"]["dispatch_hash"] == h.hexdigest()


def test_population_scales_without_event_growth(artifact):
    # The tentpole claim: virtual clients are free.  20x the population
    # must not change arrival/event counts — only which ids get sampled.
    big = run_scale(replace(TEST_CONFIG, population=1_000_000))
    assert big["merged"]["arrivals"] == pytest.approx(
        artifact["merged"]["arrivals"], rel=0.05
    )
    assert big["merged"]["max_client_id"] >= artifact["merged"]["max_client_id"]


def test_unknown_setup_rejected():
    with pytest.raises(ReproError):
        run_scale(replace(TEST_CONFIG, setup="NoSuchFS (9,9)"))


def test_unknown_scenario_rejected():
    from dataclasses import asdict

    bad = replace(TEST_CONFIG, scenario="no-such-scenario")
    with pytest.raises(ReproError):
        run_shard({"config": asdict(bad), "shard_id": 0})


# -- scenario shards build the deployment the scenario describes --------------
_TINY = replace(TEST_CONFIG, setup="HopsFS-CL (3,3)", shards=1, population=2_000,
                rate_ops_per_ms=4.0, duration_ms=340.0, warmup_ms=5.0, drain_ms=10.0,
                namespace_top_dirs=1, namespace_dirs_per_top=4, namespace_files_per_dir=4)


def _scenario_shard(monkeypatch, scenario):
    """Run shard 0 of ``scenario`` in-process; return (result, harness, build kwargs)."""
    from dataclasses import asdict

    from repro.experiments.setups import SetupSpec

    built = []
    real_build = SetupSpec.build

    def recording_build(self, *args, **kwargs):
        built.append((real_build(self, *args, **kwargs), kwargs))
        return built[-1][0]

    monkeypatch.setattr(SetupSpec, "build", recording_build)
    result = run_shard({"config": asdict(replace(_TINY, scenario=scenario)), "shard_id": 0})
    ((harness, kwargs),) = built
    return result, harness, kwargs


def test_scenario_shard_pins_its_stubs_to_the_shard_az(monkeypatch):
    result, harness, _kwargs = _scenario_shard(monkeypatch, "az-outage-under-load")
    assert len(harness.clients) == _TINY.stubs_per_shard  # the audited list
    assert {c.location_domain_id for c in harness.clients} == {result.az}


def test_scenario_shard_forwards_every_path_of_the_scenario(monkeypatch):
    from repro.chaos import SCENARIOS
    from repro.experiments.setups import CHAOS, PATHS
    from repro.hopsfs import GroupCommitter

    result, harness, kwargs = _scenario_shard(monkeypatch, "async-commit-crash")
    assert kwargs["tuning"] is CHAOS
    assert {name: kwargs[name] for name in PATHS} == SCENARIOS["async-commit-crash"].paths()
    assert all(isinstance(nn.committer, GroupCommitter) for nn in harness.deployment.namenodes)
    horizon = next(v for v in result.verdicts if v[0] == "durability-horizon")
    assert "n/a" not in horizon[2], horizon


def test_scenario_shard_runs_elastic_clients_under_churn(monkeypatch):
    _result, harness, _kwargs = _scenario_shard(monkeypatch, "nn-churn")
    assert harness.deployment.config.elastic is not None
    assert all(c.membership_refresh_ms is not None for c in harness.clients)
    assert sum(c.membership_refreshes for c in harness.clients) > 0
