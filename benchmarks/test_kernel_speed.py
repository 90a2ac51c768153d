"""Kernel speed gate: ``BENCH_kernel.json`` against the live tree.

Two kinds of assertion here, a third next door:

* The *live* kernel must not have regressed: re-measure the kernel
  microbench here and fail if its median events/sec falls more than 20%
  below the committed median (the same threshold CI uses; the live median,
  IQR and per-pass rates are printed so a drift shows in the log before it
  trips).  It is the only wall-clock rate gated here — how fast the host
  runs a full stack is ``bench_e2e``'s to measure, calibrated and in pairs.
* The two *recorded wins* (async group commit, listing cache) must still be
  in the record.
* Every *simulated* number of the record — event counts, ``events_per_op``,
  throughputs and latencies of the fig5, CephFS, scale, async and listing
  points — is exact per seed and held by the ``BENCH_kernel`` pin:
  ``python3 benchmarks/repin.py --check BENCH_kernel`` (the wall-clock
  fields are re-recorded with the file and never compared).

Run explicitly (``PYTHONPATH=src python -m pytest benchmarks/test_kernel_speed.py``);
the tier-1 suite (testpaths=tests) does not include it.
"""

import os

import pytest

from repro.experiments.perf import format_microbench, kernel_microbench

from .pins import PINS

# CI threshold: fail when live events/sec drop >20% below the committed
# baseline (see .github/workflows/ci.yml).
REGRESSION_TOLERANCE = 0.8


def _committed():
    report = PINS["BENCH_kernel"].read()
    if report is None:
        pytest.skip("no committed BENCH_kernel.json (python3 benchmarks/repin.py BENCH_kernel)")
    return report


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
        "microbench event count changed; re-pin BENCH_kernel"
    )
    assert live["events_per_sec"] >= REGRESSION_TOLERANCE * committed, (
        f"kernel microbench regressed: median {live['events_per_sec']:,} events/s "
        f"live vs {committed:,} committed"
    )


def test_async_point_recorded_win():
    """The committed record must show async group commit beating sync on
    the reference setup (throughput up or latency down)."""
    report = _committed()
    commit = report.get("async_point")
    assert commit is not None, (
        "BENCH_kernel.json has no async_point; re-pin BENCH_kernel"
    )
    assert commit["async_speedup"] > 1.0 or commit["async_latency_ratio"] < 1.0, commit


def test_listing_point_recorded_win():
    """The committed record must show the pre-materialized listing cache
    clearing its acceptance bar on the Spotify mix: >= 1.3x throughput
    over the legacy transactional read path."""
    report = _committed()
    commit = report.get("listing_point")
    assert commit is not None, (
        "BENCH_kernel.json has no listing_point; re-pin BENCH_kernel"
    )
    assert commit["listing_speedup"] >= 1.3, commit
