"""Scale engine gates: golden smoke hash + aggregate events/sec vs committed.

Three kinds of assertion, mirroring ``test_kernel_speed.py``:

* The *golden* smoke run (``SMOKE_CONFIG``: 100k clients, 2 shards) must
  reproduce the committed merged dispatch hash, artifact hash, per-shard
  hashes and merged counts exactly — simulated behaviour is deterministic,
  so any drift is a model change that needs a deliberate re-pin
  (``python3 benchmarks/repin.py scale_smoke_golden``; :func:`smoke_golden`
  is that pin's producer).
* The *recorded* scale point in ``BENCH_kernel.json`` must show the sharded
  engine at >= 2x the kernel microbench's events/sec on >= 4 shards, over a
  >= 1M virtual-client population.  Recorded back-to-back on one machine,
  so not subject to this machine's noise.
* The *live* engine must not have regressed: re-run the smoke config and
  fail if per-CPU-second event throughput falls more than 20% below the
  committed number (same tolerance as the kernel gate).

Run explicitly (``PYTHONPATH=src python -m pytest benchmarks/test_scale_speed.py``);
the tier-1 suite (testpaths=tests) does not include it.
"""

import pytest

from repro.experiments.perf import SCALE_POINT_SHARDS
from repro.experiments.scale import SMOKE_CONFIG, run_scale

from .pins import PINS

REGRESSION_TOLERANCE = 0.8  # same 20% rule as the kernel-speed gate


def _committed():
    report = PINS["BENCH_kernel"].read()
    if report is None:
        pytest.skip("no committed BENCH_kernel.json")
    return report


def smoke_golden(artifact: dict = None) -> dict:
    """The golden file's view of a ``SMOKE_CONFIG`` run: its hashes and
    merged counts, none of its timing."""
    artifact = artifact or run_scale(SMOKE_CONFIG)
    merged = artifact["merged"]
    return {
        "note": "Golden hashes of the CI scale-smoke run (SMOKE_CONFIG in "
                "repro.experiments.scale); the scale_smoke_golden pin of benchmarks/pins.py.",
        "schema": artifact["schema"],
        "config": artifact["config"],
        "artifact_hash": artifact["artifact_hash"],
        "merged_dispatch_hash": merged["dispatch_hash"],
        "shard_dispatch_hashes": {
            str(shard["shard_id"]): shard["dispatch_hash"] for shard in artifact["shards"]},
        "merged_counts": {key: merged[key] for key in
                          ("arrivals", "detailed", "events", "max_client_id", "shed")},
    }


@pytest.fixture(scope="module")
def smoke_artifact():
    return run_scale(SMOKE_CONFIG)


def test_smoke_matches_golden_hashes(smoke_artifact):
    pin = PINS["scale_smoke_golden"]
    problems = pin.problems(pin.read(), smoke_golden(smoke_artifact))
    assert not problems, (
        "the smoke run drifted from the committed golden; if the simulation "
        "model changed deliberately, python3 benchmarks/repin.py scale_smoke_golden:\n  "
        + "\n  ".join(problems)
    )


def test_recorded_scale_point_meets_acceptance():
    """Committed scale_point: >= 1M clients, >= 4 shards, >= 2x microbench."""
    report = _committed()
    point = report.get("scale_point")
    if point is None:
        pytest.skip("BENCH_kernel.json has no scale_point (re-pin)")
    assert point["population"] >= 1_000_000
    assert point["shards"] >= 4
    assert point["shards"] == SCALE_POINT_SHARDS
    micro = report["microbench"]["events_per_sec"]
    assert point["aggregate_events_per_sec"] >= 2.0 * micro, (
        f"recorded scale point {point['aggregate_events_per_sec']:,} events/s "
        f"aggregate is under 2x the microbench's {micro:,}"
    )
    assert point["aggregate_speedup_vs_microbench"] >= 2.0


def test_live_smoke_throughput_has_not_regressed(smoke_artifact):
    report = _committed()
    point = report.get("scale_point")
    if point is None:
        pytest.skip("BENCH_kernel.json has no scale_point (re-pin)")
    committed_rate = point["aggregate_events_per_sec"] / point["shards"]
    # Best-of-N, like every wall-clock gate in this suite: the smoke windows
    # are short, so take the fastest shard over three behaviourally
    # identical runs.
    artifacts = [smoke_artifact] + [run_scale(SMOKE_CONFIG) for _ in range(2)]
    live_rate = max(
        s["events_per_cpu_sec"] for a in artifacts for s in a["timing"]["per_shard"]
    )
    assert live_rate >= REGRESSION_TOLERANCE * committed_rate, (
        f"scale engine regressed: best shard sustained {live_rate:,} "
        f"events/cpu-s live vs {committed_rate:,.0f} committed per shard"
    )
