"""One repetition of one workload, timed phase by phase from outside.

The sequence is the one ``repro.experiments.run_point`` runs (build,
install, ready, clients, warm caches, warm-up, window); it is unrolled
here so that set-up, warm-up and the measured window can be timed apart
and so that a profiler or an ``ObsContext`` can be put around the window
alone.  ``tests/test_drift.py`` pins it to ``run_point``.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import time
from collections import Counter
from typing import Optional

import repro
from repro.errors import ReproError
from repro.experiments.setups import SETUPS
from repro.metrics.collectors import MetricsCollector
from repro.obs import ObsContext, Tracer, phase_breakdown
from repro.types import OpType
from repro.workloads.driver import ClosedLoopDriver
from repro.workloads.namespace import generate_namespace
from repro.workloads.spotify import SingleOpWorkload, SpotifyWorkload

from .calibration import REFERENCE_SPIN_S, Spin
from .layers import rollup
from .workloads import SERVERS, Workload

__all__ = ["run_repetition", "TallyCollector", "make_generator", "NAMESPACE"]

NAMESPACE = dict(num_top_dirs=8, dirs_per_top=64, files_per_dir=32)
_PACKAGE_DIR = os.path.dirname(repro.__file__)
_VERIFY_SAMPLE = 96  # acked mkdir paths stat'ed after the window (>= 64)
_DRAIN_MS = 50.0  # >> one mkdir (~9 ms): every in-flight op finishes
_SLICES = 8


class TallyCollector(MetricsCollector):
    """Adds what the stock collector drops: *why* window ops failed."""

    def __init__(self):
        super().__init__()
        self.failed_by_error = Counter()
        self.failed_anywhere = 0  # warm-up and drain included

    def record(self, result) -> None:
        if not result.ok:
            self.failed_anywhere += 1
            if self._in_window(result.end_ms):
                self.failed_by_error[result.error] += 1
        super().record(result)


class _IssuedPaths:
    """Generator wrapper remembering every path handed to a client."""

    def __init__(self, inner):
        self.inner = inner
        self.paths = []

    def next_op(self, client_id=None):
        op, kwargs = self.inner.next_op(client_id=client_id)
        self.paths.append(kwargs["path"])
        return op, kwargs


def make_generator(workload: Workload, namespace, seed: int):
    if workload.single_op is not None:
        return SingleOpWorkload(workload.single_op, namespace, seed=seed)
    return SpotifyWorkload(namespace, seed=seed, tag=workload.setup)


def _digest(events: int, collector: MetricsCollector) -> str:
    blob = json.dumps([events, collector.completed, collector.failed,
                       sorted(collector.latencies_ms)])
    return hashlib.sha256(blob.encode()).hexdigest()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _raw_counters(adapter, clients) -> dict:
    """Cumulative public counters of every layer the deployment has."""
    network = adapter.network
    traffic = network.traffic
    raw = {
        "net.messages": traffic.messages,
        "net.bytes": traffic.total_bytes,
        "net.cross_az_bytes": traffic.cross_az_bytes,
        "net.dropped": network.dropped_messages,
        "net.late": network.late_replies,
    }
    if adapter.spec.kind == "hopsfs":
        dep = adapter.deployment
        stats = dep.ndb.read_stats
        caches = [nn.listing_cache for nn in dep.namenodes if nn.listing_cache is not None]
        raw.update({
            "ndb.local_reads": stats.az_local_reads,
            "ndb.remote_reads": stats.az_remote_reads,
            "ndb.lock_timeouts": sum(
                dn.locks.timeouts_fired for dn in dep.ndb.datanodes.values()),
            "ndb.disk_written": sum(w for _r, w in dep.ndb.disk_stats().values()),
            "nn.failed": sum(nn.ops_failed for nn in dep.namenodes),
            "nn.shed": sum(nn.ops_shed for nn in dep.namenodes),
            "dircache.hits": sum(nn.dir_cache.hits for nn in dep.namenodes),
            "dircache.misses": sum(nn.dir_cache.misses for nn in dep.namenodes),
            "listcache.hits": sum(c.hits for c in caches),
            "listcache.misses": sum(c.misses for c in caches),
            "listcache.invalidations": sum(c.invalidations for c in caches),
            "client.failovers": sum(c.failovers for c in clients),
            "client.timeouts": sum(c.timeouts for c in clients),
        })
    else:
        cluster = adapter.cluster
        raw.update({
            "mds.busy_ms": sum(m.cpu.busy_time for m in cluster.mds_list),
            "mds.requests": sum(m.ops_served for m in cluster.mds_list),
            "mds.journal_flushes": sum(m.journal_flushes for m in cluster.mds_list),
            "kcache.hits": sum(c.cache_hits for c in clients),
            "kcache.misses": sum(c.cache_misses for c in clients),
            "osd.disk_written": sum(o.disk.bytes_written for o in cluster.osds),
        })
    return raw


def _layer_counters(d: Counter, report, kind: str, window_ms: float, ops: int,
                    events: int) -> dict:
    """Per-layer simulated counters over the window (exact for a seed).
    ``d`` is the window's delta of :func:`_raw_counters`; as a ``Counter``
    it reads 0 for the layers the deployment does not have."""
    reads = d["ndb.local_reads"] + d["ndb.remote_reads"]
    ndb_cpu = report.ndb_thread_cpu_pct  # empty on CephFS
    return {
        "sim.events_per_op": _ratio(events, ops),
        "net.messages_per_op": _ratio(d["net.messages"], ops),
        "net.bytes_per_op": _ratio(d["net.bytes"], ops),
        "net.cross_az_share": _ratio(d["net.cross_az_bytes"], d["net.bytes"]),
        "net.dropped_messages": d["net.dropped"],
        "net.late_replies": d["net.late"],
        "ndb.cpu_pct.ldm": ndb_cpu.get("ldm", 0.0),
        "ndb.cpu_pct.tc": ndb_cpu.get("tc", 0.0),
        "ndb.cpu_pct.recv": ndb_cpu.get("recv", 0.0),
        "ndb.cpu_pct.send": ndb_cpu.get("send", 0.0),
        "ndb.reads_per_op": _ratio(reads, ops),
        "ndb.az_local_read_share": _ratio(d["ndb.local_reads"], reads),
        "ndb.lock_timeouts": d["ndb.lock_timeouts"],
        "ndb.disk_write_bytes_per_op": _ratio(d["ndb.disk_written"], ops),
        "hopsfs.nn_cpu_pct": report.server_cpu_pct if kind == "hopsfs" else 0.0,
        "hopsfs.nn_ops_failed": d["nn.failed"],
        "hopsfs.nn_ops_shed": d["nn.shed"],
        "hopsfs.dircache_hit_ratio": _ratio(
            d["dircache.hits"], d["dircache.hits"] + d["dircache.misses"]),
        "hopsfs.listcache_hit_ratio": _ratio(
            d["listcache.hits"], d["listcache.hits"] + d["listcache.misses"]),
        "hopsfs.listcache_invalidations_per_op": _ratio(d["listcache.invalidations"], ops),
        "hopsfs.client_failovers": d["client.failovers"],
        "hopsfs.client_timeouts": d["client.timeouts"],
        # Percent of the one thread each MDS has (the report's figure is
        # percent of the 32-core host).
        "cephfs.mds_cpu_pct": 100.0 * _ratio(d["mds.busy_ms"], SERVERS * window_ms),
        "cephfs.mds_requests_per_op": _ratio(d["mds.requests"], ops),
        "cephfs.kcache_hit_ratio": _ratio(
            d["kcache.hits"], d["kcache.hits"] + d["kcache.misses"]),
        "cephfs.journal_flushes": d["mds.journal_flushes"],
        "cephfs.osd_disk_write_bytes_per_op": _ratio(d["osd.disk_written"], ops),
    }


def _obs_phases(tracer: Tracer, first_window_span: int, ops: int) -> dict:
    """Simulated-time phase split of the ops that began in the window."""
    window = Tracer()
    window.spans = tracer.spans[first_window_span:]
    rows = phase_breakdown(window).values()
    count = sum(b.count for b in rows)
    return {
        "obs.spans_per_op": _ratio(len(window.spans), ops),
        "obs.phase_metadata_ms": _ratio(sum(b.metadata_ms for b in rows), count),
        "obs.phase_lock_wait_ms": _ratio(sum(b.lock_wait_ms for b in rows), count),
        "obs.phase_cache_ms": _ratio(sum(b.cache_ms for b in rows), count),
        "obs.phase_block_ms": _ratio(sum(b.block_ms for b in rows), count),
        "obs.phase_other_ms": _ratio(sum(b.other_ms for b in rows), count),
        "obs.cross_az_hops_per_op": _ratio(sum(b.cross_az_hops for b in rows), count),
    }


def _verify_mkdirs(adapter, driver, issued: list) -> tuple:
    """Stop, drain, and stat an evenly spaced sample of the issued mkdir
    paths (first and last included) from a fresh client.  Returns (found,
    sampled); with no failed op anywhere in the run, every issued path was
    acked, so the caller wants found == sampled."""
    env = adapter.env
    driver.stop()
    env.run(until=env.now + _DRAIN_MS)
    n = min(_VERIFY_SAMPLE, len(issued))
    sample = [issued[i * (len(issued) - 1) // max(1, n - 1)] for i in range(n)]
    client = adapter.make_clients(1)[0]
    found = 0
    for path in sample:
        try:
            env.run_process(client.op(OpType.STAT, path=path), until=env.now + 1000.0)
        except ReproError:
            continue
        found += 1
    return found, len(sample)


def _run_window(env, window_ms: float, spin: Spin, profiler) -> dict:
    """Run the measured window in ``_SLICES`` equal slices of simulated
    time, a spin on both sides of each; each slice's wall time is scaled by
    the two spins next to it."""
    clock = time.perf_counter
    start = env.now
    spins = [spin.seconds()]
    walls = []
    cpu = 0.0
    for k in range(1, _SLICES + 1):
        # The last horizon is the expression run_point uses, bit for bit.
        until = start + window_ms * k / _SLICES if k < _SLICES else start + window_ms
        cpu_start = time.process_time()
        wall_start = clock()
        if profiler:
            profiler.enable()
        env.run(until=until)
        if profiler:
            profiler.disable()
        walls.append(clock() - wall_start)
        cpu += time.process_time() - cpu_start
        spins.append(spin.seconds())
    speeds = [2 * REFERENCE_SPIN_S / (a + b) for a, b in zip(spins, spins[1:])]
    return {
        "raw_s": sum(walls),
        "raw_cpu_s": cpu,
        "s": sum(wall * speed for wall, speed in zip(walls, speeds)),
        "first_spin_s": spins[0],
    }


def run_repetition(workload: Workload, seed: int, spin: Spin, quick: bool = False,
                   trace: Optional[str] = None) -> dict:
    """Build a fresh deployment, warm it, and measure one window.

    ``trace`` is ``None`` (timed repetition), ``"profile"`` (cProfile
    around the window) or ``"obs"`` (an ``ObsContext`` attached for the
    whole run, as ``run_point(obs=...)`` does).  ``spin`` is timed before
    set-up and around every slice of the window; every host time in the
    result is at reference machine speed (see ``calibration.py``) unless
    its key says ``raw``.
    """
    gc.collect()  # the previous repetition's deployment is cyclic garbage
    clock = time.perf_counter
    spin_start = spin.seconds()
    t0 = clock()
    adapter = SETUPS[workload.setup].build(
        SERVERS, seed=seed, listing_cache=workload.cache_config())
    env = adapter.env
    obs = ObsContext().attach(env) if trace == "obs" else None
    t1 = clock()
    namespace = generate_namespace(seed=seed, **NAMESPACE)
    adapter.install(namespace)
    t2 = clock()
    env.run_process(adapter.ready(), until=env.now + 60_000)
    t3 = clock()
    generator = make_generator(workload, namespace, seed)
    if workload.verify_mkdirs:
        generator = _IssuedPaths(generator)
    clients = adapter.make_clients(workload.clients_per_server * SERVERS)
    adapter.warm_client_caches(clients, generator)
    t4 = clock()
    collector = TallyCollector()
    driver = ClosedLoopDriver(env, clients, generator, collector)
    driver.start()
    env.run(until=env.now + workload.warmup(quick))
    t5 = clock()

    window_ms = workload.window(quick)
    first_window_span = len(obs.tracer.spans) if obs else 0
    before = _raw_counters(adapter, clients)
    snapshot = adapter.utilization_snapshot()
    # The kernel's sequence counter is what run_point reports as ``events``.
    events_before = env._seq
    profiler = cProfile.Profile() if trace == "profile" else None
    collector.open_window(env.now)
    gc.collect()
    window = _run_window(env, window_ms, spin, profiler)
    collector.close_window(env.now)
    setup_speed = 2 * REFERENCE_SPIN_S / (spin_start + window["first_spin_s"])
    events = env._seq - events_before
    report = adapter.utilization_report(snapshot)
    after = _raw_counters(adapter, clients)
    delta = Counter({key: after[key] - before[key] for key in after})

    ops = collector.completed
    percentiles = collector.latency_percentiles(ps=(50, 99))
    rep = {
        "phases_s": {"build": (t1 - t0) * setup_speed, "install": (t2 - t1) * setup_speed,
                     "ready": (t3 - t2) * setup_speed, "clients": (t4 - t3) * setup_speed,
                     "warmup": (t5 - t4) * setup_speed},
        "setup_s": (t4 - t0) * setup_speed,
        "window_s": window["s"],
        "window_raw_s": window["raw_s"],
        "window_raw_cpu_s": window["raw_cpu_s"],
        "machine_speed": window["s"] / window["raw_s"],  # 1.0 = reference; lower = slow phase
        "window_ms": window_ms,
        "events": events,
        "events_total": env._seq,
        "completed": ops,
        "failed": collector.failed,
        "failed_by_error": dict(sorted(collector.failed_by_error.items())),
        "digest": _digest(events, collector),
        "sim": {
            "throughput_ops_s": collector.throughput_ops_per_sec(),
            "mean_ms": collector.avg_latency_ms(),
            "p50_ms": percentiles[50],
            "p99_ms": percentiles[99],
            "cross_az_bytes_per_op": _ratio(delta["net.cross_az_bytes"], ops),
        },
        "layer_counters": _layer_counters(
            delta, report, adapter.spec.kind, window_ms, ops, events),
    }
    if profiler:
        rep["layer_table"] = rollup(profiler.getstats(), _PACKAGE_DIR)
    if obs:
        rep["obs"] = _obs_phases(obs.tracer, first_window_span, ops)
    if workload.verify_mkdirs:
        rep["mkdirs_found"], rep["mkdirs_sampled"] = _verify_mkdirs(
            adapter, driver, generator.paths)
        rep["failed_anywhere"] = collector.failed_anywhere
    return rep
