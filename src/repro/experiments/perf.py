"""Kernel performance record: the microbench ceiling plus pinned design numbers.

:func:`run_perf` is the producer of the ``BENCH_kernel`` pin
(``benchmarks/pins.py``; ``python -m repro perf`` prints the same record):

* :func:`kernel_microbench` — a pure-kernel events/sec microbenchmark that
  exercises the hot paths the figure runs lean on (``yield env.timeout``,
  Store handoffs, CorePool job completion callbacks, waits on
  already-processed events).  No domain code, so it isolates the DES
  engine itself.  The only wall-clock rate kept here: CI fails when it
  regresses more than 20% against the committed file.
* :func:`fig5_reference_point` / :func:`cephfs_point` — the *simulated*
  results of one fixed Figure 5 point (``HopsFS-CL (3,3)`` at 6 namenodes)
  and of the CephFS baseline of the same figure: events, events per op,
  throughput.  Exact per seed, so the gate is equality.  How fast the host
  runs them is ``bench_e2e``'s job (``spotify_sat`` / ``cephfs_sat``, with
  calibration and a gate), not this module's.
* :func:`scale_point`, :func:`async_point`, :func:`listing_point` — the
  sharded scale run and the two recorded wins.

Every re-pin that writes ``BENCH_kernel.json`` also appends one line to the
``BENCH_history.jsonl`` beside it (:func:`append_history`), so the trajectory
survives the overwrite.  ``REPRO_BENCH_SCALE`` scales the windows and the
microbench horizon (see :func:`repro.experiments.runner.bench_scale`).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import time
from typing import Optional

from ..sim import CorePool, Environment, Store
from ..types import OpType
from .runner import RunConfig, bench_scale, run_point

__all__ = [
    "kernel_microbench",
    "format_microbench",
    "fig5_reference_point",
    "cephfs_point",
    "append_history",
    "HISTORY_FILE",
    "scale_point",
    "async_point",
    "listing_point",
    "run_perf",
    "REFERENCE_SETUP",
    "REFERENCE_SERVERS",
    "SCALE_POINT_SHARDS",
    "SCALE_POINT_POPULATION",
]

REFERENCE_SETUP = "HopsFS-CL (3,3)"
REFERENCE_SERVERS = 6
_FIG5_CONFIG = dict(warmup_ms=15.0, window_ms=15.0)

# The CephFS point runs ~53 ops per simulated ms at ~4 events per op, so its
# window is long enough to make the event count comparable to the fig5
# point's (~220k).
CEPHFS_SETUP = "CephFS"
_CEPHFS_CONFIG = dict(warmup_ms=100.0, window_ms=1000.0)

HISTORY_FILE = "BENCH_history.jsonl"

# Microbench population: sized so one run takes O(seconds) at scale 1.
# Weighted like a figure run: same-instant hand-offs between processes
# (Store put/get, standing in for an RPC reply resuming its caller) and
# CPU-pool completions (every handler charges a CorePool) dominate; pure
# sleep loops (heartbeats, election timers) are a minority of kernel traffic.
_TICKERS = 100
_PINGPONG_PAIRS = 150
_POOL_CLIENTS = 150
_WAITER_CHAINS = 50
_HORIZON_MS = 2_000.0
# Median-of-N wall-clock protocol: simulated behaviour is identical across
# repeats (same event count, same trace); only the wall clock is noisy.  The
# median with its IQR says what a run typically measures and how far runs
# spread; the best run says neither.
_MICROBENCH_REPEATS = 5


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux, bytes on macOS; the repo targets Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _build_microbench(env: Environment) -> None:
    """Spawn the microbenchmark population on ``env``.

    The mix mirrors what a figure run does to the kernel: mostly timeout
    waits, plus hand-offs (Store), CPU-pool completion events, and
    re-waits on already-processed events (the wakeup fast path).
    """

    # Bound methods are hoisted out of the loops so the measurement is of
    # the kernel, not of the driver generators' attribute lookups (the same
    # reason ``timeit`` hoists globals into locals).

    def ticker(period: float):
        # The dominant pattern in every simulated component: sleep loops.
        timeout = env.timeout
        while True:
            yield timeout(period)

    def producer(store: Store, period: float):
        timeout = env.timeout
        put = store.put
        n = 0
        while True:
            yield timeout(period)
            put(n)
            n += 1

    def consumer(store: Store):
        get = store.get
        while True:
            yield get()

    def pool_client(pool: CorePool, cost: float, think: float):
        timeout = env.timeout
        submit = pool.submit
        while True:
            yield submit(cost)
            yield timeout(think)

    def rewaiter(period: float):
        # Waits on an event that is already processed by the time the
        # second wait happens — exercises the processed-target wakeup path.
        timeout = env.timeout
        while True:
            done = timeout(period)
            yield done
            yield done  # already processed: immediate (next-step) wakeup

    for i in range(_TICKERS):
        env.process(ticker(0.5 + (i % 7) * 0.1), name=f"ticker{i}")
    for i in range(_PINGPONG_PAIRS):
        store = Store(env, name=f"s{i}")
        env.process(producer(store, 0.7 + (i % 5) * 0.1), name=f"prod{i}")
        env.process(consumer(store), name=f"cons{i}")
    pool = CorePool(env, cores=8, name="bench-pool")
    for i in range(_POOL_CLIENTS):
        env.process(pool_client(pool, 0.05, 0.4 + (i % 3) * 0.1), name=f"job{i}")
    for i in range(_WAITER_CHAINS):
        env.process(rewaiter(0.9 + (i % 4) * 0.1), name=f"rewait{i}")


def kernel_microbench(
    horizon_ms: Optional[float] = None, repeats: int = _MICROBENCH_REPEATS
) -> dict:
    """Run the kernel-only microbenchmark; returns events/sec stats.

    Runs ``repeats`` independent, behaviourally-identical passes and
    reports the median rate (``events_per_sec``, with ``wall_s`` the median
    pass's wall time) and the interquartile range of the passes; all
    per-pass rates are included.
    """
    horizon = horizon_ms if horizon_ms is not None else _HORIZON_MS * bench_scale()
    events = 0
    walls = []
    for _ in range(max(1, repeats)):
        env = Environment()
        _build_microbench(env)
        start = time.perf_counter()
        env.run(until=horizon)
        walls.append(time.perf_counter() - start)
        events = env._seq
    rates = [round(events / wall) if wall > 0 else 0 for wall in walls]
    if len(rates) > 1:
        q1, _median, q3 = statistics.quantiles(rates, n=4, method="inclusive")
    else:
        q1 = q3 = rates[0]
    return {
        "horizon_ms": horizon,
        "events": events,
        "wall_s": round(statistics.median(walls), 4),
        "events_per_sec": round(statistics.median(rates)),
        "events_per_sec_iqr": round(q3 - q1),
        "events_per_sec_runs": rates,
    }


def format_microbench(micro: dict) -> str:
    """One log line: the microbench median, its IQR and the per-pass rates."""
    runs = ", ".join(f"{rate:,}" for rate in micro["events_per_sec_runs"])
    return (
        f"kernel microbench: median {micro['events_per_sec']:,} events/s, "
        f"IQR {micro['events_per_sec_iqr']:,} over {len(micro['events_per_sec_runs'])} "
        f"passes [{runs}] ({micro['events']:,} events)"
    )


def _spotify_point(setup: str, config: dict) -> dict:
    """The simulated results of one Spotify-mix point on ``setup``."""
    point = run_point(setup, REFERENCE_SERVERS, config=RunConfig(**config))
    return {
        "setup": setup,
        "servers": REFERENCE_SERVERS,
        "bench_scale": bench_scale(),
        "events": point.events,
        "throughput_ops_s": round(point.throughput_ops_s, 3),
        "avg_latency_ms": round(point.avg_latency_ms, 6),
        "completed": point.completed,
        # Design metric, exact per seed: whole-run kernel events (set-up and
        # warm-up included) per op completed in the window.
        "events_per_op": round(point.events / point.completed, 3) if point.completed else 0.0,
    }


def fig5_reference_point() -> dict:
    """The fixed Figure 5 reference point."""
    return _spotify_point(REFERENCE_SETUP, _FIG5_CONFIG)


def cephfs_point() -> dict:
    """The CephFS baseline point: almost every op is a kernel-cache hit
    (one timeout, no message), ~4 events per op."""
    return _spotify_point(CEPHFS_SETUP, _CEPHFS_CONFIG)


# The recorded scale point: the paper's headline regime.  12 shards (4 per
# AZ of HopsFS-CL (3,3)) over a million-client Zipf population at 2M ops/s
# offered load.  ≥ 4 shards is the acceptance floor for the aggregate
# events/s gate; 12 is the engine's default partition for 3-AZ setups.
SCALE_POINT_SHARDS = 12
SCALE_POINT_POPULATION = 1_000_000


def scale_point() -> dict:
    """Run the sharded scale engine once and condense the record.

    The measurement windows scale with ``REPRO_BENCH_SCALE`` like every
    other harness entry; the population does not (virtual clients are free
    — that is the point of aggregated arrivals).
    """
    from .scale import ScaleConfig, run_scale

    scale = bench_scale()
    config = ScaleConfig(
        population=SCALE_POINT_POPULATION,
        shards=SCALE_POINT_SHARDS,
        duration_ms=200.0 * scale,
        warmup_ms=20.0 * scale,
        drain_ms=50.0 * scale,
    )
    artifact = run_scale(config)
    merged = artifact["merged"]
    timing = artifact["timing"]
    return {
        "setup": config.setup,
        "servers": config.servers,
        "bench_scale": scale,
        "population": config.population,
        "shards": SCALE_POINT_SHARDS,
        "workers": timing["workers"],
        "duration_ms": config.duration_ms,
        "offered_ops_per_s": round(merged["offered_ops_per_s"], 1),
        "arrivals": merged["arrivals"],
        "detailed_ops": merged["detailed"],
        "events": merged["events"],
        # Sum of per-shard events per CPU second: what the sharded engine
        # sustains with one core per shard (contention-independent).  The
        # wall rate of this particular run is recorded alongside.
        "aggregate_events_per_sec": timing["aggregate_events_per_sec"],
        "wall_events_per_sec": timing["wall_events_per_sec"],
        "run_wall_s": timing["run_wall_s"],
        "peak_shard_rss_mb": timing["peak_shard_rss_mb"],
        "merged_dispatch_hash": merged["dispatch_hash"],
        "artifact_hash": artifact["artifact_hash"],
    }


def _ab_point(name: str, base: str, test: str, path: dict, config: dict,
              **point_kwargs) -> dict:
    """One recorded win: the reference setup run twice, without (``base``)
    and with (``test``) the serving path ``path``; both runs' simulated
    results, what their failed ops were, and the ``name`` ratios."""
    results = {}
    for mode, paths in ((base, {}), (test, path)):
        point = run_point(
            REFERENCE_SETUP, REFERENCE_SERVERS,
            config=RunConfig(warmup_ms=15.0, window_ms=15.0, **config, **paths),
            **point_kwargs,
        )
        results[mode] = {
            "throughput_ops_s": round(point.throughput_ops_s, 3),
            "avg_latency_ms": round(point.avg_latency_ms, 6),
            "p99_ms": round(point.p99_ms, 6),
            "completed": point.completed,
            "failed": point.failed,
            "failed_by_error": point.failed_by_error,
        }
    off, on = results[base], results[test]
    return {
        "setup": REFERENCE_SETUP,
        "servers": REFERENCE_SERVERS,
        "bench_scale": bench_scale(),
        **results,
        f"{name}_speedup": round(on["throughput_ops_s"] / off["throughput_ops_s"], 3)
        if off["throughput_ops_s"] else 0.0,
        f"{name}_latency_ratio": round(on["avg_latency_ms"] / off["avg_latency_ms"], 3)
        if off["avg_latency_ms"] else 0.0,
    }


def async_point() -> dict:
    """Sync-vs-async group commit on the mutation-heavy microbenchmark.

    The mkdir single-op workload is the regime the async path is built
    for (every op is a groupable metadata mutation; the Spotify mix is
    ~90% reads, so its aggregate delta is marginal).  Measured below
    NN-CPU saturation (24 closed-loop clients per server, not the default
    160): early acks cut the commit+complete chain out of each client's
    loop, which only moves throughput/latency while that chain is on the
    critical path.  At saturation the NN CPU is the bottleneck for sync
    and async alike and the two converge — a true statement about group
    commit, not a measurement artifact.
    """
    from ..hopsfs.groupcommit import AsyncCommitConfig

    record = _ab_point(
        "async", "sync", "async", {"async_commit": AsyncCommitConfig()},
        {"clients_per_server": 24}, workload="single", op=OpType.MKDIR,
    )
    record["op"] = "mkdir"
    return record


def listing_point() -> dict:
    """Cache-off vs cache-on Spotify mix on the reference setup.

    The mix is ~95% reads, almost all of which the pre-materialized
    listing cache can serve from NN memory (the preloaded namespace's
    files are all small, so even ``readFile`` skips NDB).  Runs at the
    default closed-loop client count: NN-CPU saturation, the regime where
    skipping transaction setup frees handler cores.
    """
    from ..hopsfs.listcache import ListingCacheConfig

    record = _ab_point(
        "listing", "off", "on", {"listing_cache": ListingCacheConfig()}, {},
        workload="spotify",
    )
    record["workload"] = "spotify"
    return record


def run_perf() -> dict:
    """Run every measurement and return the ``BENCH_kernel.json`` record."""
    report = {
        "microbench": kernel_microbench(),
        "fig5_point": fig5_reference_point(),
        "cephfs_point": cephfs_point(),
        "scale_point": scale_point(),
        "async_point": async_point(),
        "listing_point": listing_point(),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }
    report["scale_point"]["aggregate_speedup_vs_microbench"] = round(
        report["scale_point"]["aggregate_events_per_sec"]
        / report["microbench"]["events_per_sec"], 2
    )
    return report


def _git_revision() -> str:
    """``git describe --always --dirty`` of the source tree, or ``unknown``."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _config_fingerprint() -> str:
    """Hash of everything that sizes the measurements: two history lines
    are comparable only when their fingerprints are equal."""
    config = {
        "bench_scale": bench_scale(),
        "microbench": [_TICKERS, _PINGPONG_PAIRS, _POOL_CLIENTS, _WAITER_CHAINS,
                       _HORIZON_MS, _MICROBENCH_REPEATS],
        "fig5": [REFERENCE_SETUP, REFERENCE_SERVERS, _FIG5_CONFIG],
        "cephfs": [CEPHFS_SETUP, REFERENCE_SERVERS, _CEPHFS_CONFIG],
        "scale": [SCALE_POINT_SHARDS, SCALE_POINT_POPULATION],
    }
    blob = json.dumps(config, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def append_history(report: dict, path: str) -> dict:
    """Append the headline numbers of ``report`` to the trajectory at ``path``."""
    micro, scale = report["microbench"], report["scale_point"]
    line = {
        "git": _git_revision(),
        "config": _config_fingerprint(),
        "recorded_unix_s": round(time.time()),
        "microbench_events_per_sec": micro["events_per_sec"],
        "microbench_events_per_sec_iqr": micro["events_per_sec_iqr"],
        "fig5_events_per_op": report["fig5_point"]["events_per_op"],
        "cephfs_events_per_op": report["cephfs_point"]["events_per_op"],
        "scale_aggregate_events_per_sec": scale["aggregate_events_per_sec"],
        "scale_wall_events_per_sec": scale["wall_events_per_sec"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    with open(path, "a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    return line
