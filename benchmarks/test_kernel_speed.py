"""Kernel speed gate: ``BENCH_kernel.json`` against the live tree.

Three kinds of assertion:

* The *live* kernel must not have regressed: re-measure the kernel
  microbench here and fail if its median events/sec falls more than 20%
  below the committed median (the same threshold CI uses; the live median,
  IQR and per-pass rates are printed so a drift shows in the log before it
  trips).  It is the only wall-clock rate gated here — how fast the host
  runs a full stack is ``bench_e2e``'s to measure, calibrated and in pairs.
* The *design metrics* of the fig5 point and of the CephFS point — event
  count, ``events_per_op``, simulated throughput — are exact per seed and
  must equal the committed values: a change that spends more kernel events
  per op has to re-record them deliberately.
* The two *recorded wins* (async group commit, listing cache) must still be
  in the record, and the live simulated throughput of each must be within
  20% of it.

Run explicitly (``PYTHONPATH=src python -m pytest benchmarks/test_kernel_speed.py``);
the tier-1 suite (testpaths=tests) does not include it.
"""

import json
import os
import pathlib

import pytest

from repro.experiments.perf import (
    async_point,
    cephfs_point,
    fig5_reference_point,
    format_microbench,
    kernel_microbench,
    listing_point,
)

BENCH_PATH = pathlib.Path(__file__).parent.parent / "BENCH_kernel.json"

# CI threshold: fail when live events/sec drop >20% below the committed
# baseline (see .github/workflows/ci.yml).
REGRESSION_TOLERANCE = 0.8


def _committed():
    if not BENCH_PATH.exists():
        pytest.skip("no committed BENCH_kernel.json (run `python -m repro perf`)")
    with open(BENCH_PATH) as fh:
        return json.load(fh)


def _require_scale_one():
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    if scale != 1.0:
        pytest.skip("BENCH_kernel.json numbers are recorded at REPRO_BENCH_SCALE=1")


def test_microbench_has_not_regressed():
    report = _committed()
    _require_scale_one()
    committed = report["microbench"]["events_per_sec"]
    live = kernel_microbench(repeats=5)
    print(f"\n{format_microbench(live)}; committed median {committed:,}")
    assert live["events"] == report["microbench"]["events"], (
        "microbench event count changed; re-record BENCH_kernel.json"
    )
    assert live["events_per_sec"] >= REGRESSION_TOLERANCE * committed, (
        f"kernel microbench regressed: median {live['events_per_sec']:,} events/s "
        f"live vs {committed:,} committed"
    )


def _check_spotify_point(name: str, measure) -> None:
    """One live run of a recorded full-stack point: every simulated number
    equals the committed record."""
    report = _committed()
    _require_scale_one()
    assert name in report, f"BENCH_kernel.json has no {name}; re-record it"
    committed = report[name]
    live = measure()
    assert live["events"] == committed["events"], (
        f"{name} event count changed; re-record BENCH_kernel.json"
    )
    assert live["events_per_op"] == committed["events_per_op"], (
        f"{name} events/op changed; re-record BENCH_kernel.json"
    )
    # Whatever else is recorded is simulated too, hence deterministic.
    assert live == {key: committed[key] for key in live}


def test_fig5_point_is_the_recorded_one():
    _check_spotify_point("fig5_point", fig5_reference_point)


def test_cephfs_point_is_the_recorded_one():
    _check_spotify_point("cephfs_point", cephfs_point)


def test_async_point_recorded_win():
    """The committed record must show async group commit beating sync on
    the reference setup (throughput up or latency down)."""
    report = _committed()
    commit = report.get("async_point")
    assert commit is not None, (
        "BENCH_kernel.json has no async_point; re-record with `python -m repro perf`"
    )
    assert commit["async_speedup"] > 1.0 or commit["async_latency_ratio"] < 1.0, commit


def test_async_point_has_not_regressed():
    """The same 20% regression rule as the sync points, applied to the
    async group-commit throughput point."""
    report = _committed()
    _require_scale_one()
    if "async_point" not in report:
        pytest.skip("no async_point recorded; re-record BENCH_kernel.json")
    committed = report["async_point"]
    live = async_point()
    # Simulated throughput is deterministic; the tolerance covers deliberate
    # re-records on slightly different commit policies, not wall-clock noise.
    assert live["async"]["throughput_ops_s"] >= (
        REGRESSION_TOLERANCE * committed["async"]["throughput_ops_s"]
    ), (
        f"async point regressed: {live['async']['throughput_ops_s']:,} ops/s live "
        f"vs {committed['async']['throughput_ops_s']:,} committed"
    )
    assert live["async_speedup"] > 1.0, live


def test_listing_point_recorded_win():
    """The committed record must show the pre-materialized listing cache
    clearing its acceptance bar on the Spotify mix: >= 1.3x throughput
    over the legacy transactional read path."""
    report = _committed()
    commit = report.get("listing_point")
    assert commit is not None, (
        "BENCH_kernel.json has no listing_point; re-record with `python -m repro perf`"
    )
    assert commit["listing_speedup"] >= 1.3, commit


def test_listing_point_has_not_regressed():
    """The same 20% regression rule as the sync points, applied to the
    cache-on Spotify-mix throughput point."""
    report = _committed()
    _require_scale_one()
    if "listing_point" not in report:
        pytest.skip("no listing_point recorded; re-record BENCH_kernel.json")
    committed = report["listing_point"]
    live = listing_point()
    # Simulated throughput is deterministic; the tolerance covers deliberate
    # re-records on slightly different cache policies, not wall-clock noise.
    assert live["on"]["throughput_ops_s"] >= (
        REGRESSION_TOLERANCE * committed["on"]["throughput_ops_s"]
    ), (
        f"listing point regressed: {live['on']['throughput_ops_s']:,} ops/s live "
        f"vs {committed['on']['throughput_ops_s']:,} committed"
    )
    assert live["listing_speedup"] > 1.0, live
