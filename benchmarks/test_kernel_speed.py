"""Kernel speed gate: events/sec now vs the numbers in BENCH_kernel.json.

Three kinds of assertion:

* The *recorded* speedups in the committed ``BENCH_kernel.json`` must show
  the fast-path kernel at >= 2x the pre-PR kernel (microbench and the
  fig5 reference point).  Those numbers were measured back-to-back on one
  machine, so they are not subject to the noise of whatever machine runs
  this test.
* The *live* kernel must not have regressed: re-measure here and fail if
  events/sec fall more than 20% below the committed numbers (the same
  threshold CI uses).  Wall-clock noise on a loaded machine is real, which
  is why the regression gate is 20% and the microbench compares medians
  (live median of 5 against the committed median; the live median, IQR and
  per-pass rates are printed so a drift shows in the log before it trips).
* The *design metric* ``events_per_op`` of the fig5 point and of the
  CephFS point is exact per seed and must equal the committed value: a
  change that spends more kernel events per op has to re-record it
  deliberately.

There is deliberately no live-vs-``pre_pr_baseline`` assertion: that
baseline was recorded on another machine-speed phase, so a live rate is
not comparable with it.  The >= 2x claim is checked on the record, and
the live kernel is checked against the committed numbers.

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


def test_recorded_speedup_vs_pre_pr_kernel():
    """The committed record must show the >= 2x events/sec win."""
    report = _committed()
    assert report["microbench_speedup_vs_pre_pr"] >= 2.0
    assert report["fig5_speedup_vs_pre_pr"] >= 2.0


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
    """Fastest of three live runs of one recorded full-stack point against
    the committed record: simulated results equal, rate within tolerance."""
    report = _committed()
    _require_scale_one()
    assert name in report, f"BENCH_kernel.json has no {name}; re-record it"
    committed = report[name]
    live = min((measure() for _ in range(3)), key=lambda r: r["wall_s"])
    assert live["events"] == committed["events"], (
        f"{name} event count changed; re-record BENCH_kernel.json"
    )
    # Simulated results are deterministic even though wall time is not.
    assert live["throughput_ops_s"] == committed["throughput_ops_s"]
    assert live["events_per_op"] == committed["events_per_op"], (
        f"{name} events/op changed; re-record BENCH_kernel.json"
    )
    assert live["events_per_sec"] >= REGRESSION_TOLERANCE * committed["events_per_sec"], (
        f"{name} regressed: {live['events_per_sec']:,} events/s live "
        f"vs {committed['events_per_sec']:,} committed"
    )


def test_fig5_point_has_not_regressed():
    _check_spotify_point("fig5_point", fig5_reference_point)


def test_cephfs_point_has_not_regressed():
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
