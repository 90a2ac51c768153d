"""The harness unrolls ``run_point``; this pins the two to each other."""

from dataclasses import replace

import pytest

from bench_e2e.calibration import Spin
from bench_e2e.harness import NAMESPACE, run_repetition
from bench_e2e.workloads import SERVERS, WORKLOADS
from repro.experiments.runner import RunConfig, run_point


@pytest.fixture(scope="module")
def spin():
    return Spin()


@pytest.mark.parametrize("name", ["spotify_sat", "mkdir_chain", "cephfs_sat"])
def test_repetition_matches_run_point(name, spin):
    # Tiny windows; cephfs keeps 8 clients/MDS, which run_point hard-wires.
    tiny = replace(WORKLOADS[name], warmup_ms=10.0, window_ms=20.0)
    if tiny.setup != "CephFS":
        tiny = replace(tiny, clients_per_server=16)
    rep = run_repetition(tiny, seed=1, spin=spin)

    config = RunConfig(
        clients_per_server=tiny.clients_per_server,
        warmup_ms=tiny.warmup(quick=False),
        window_ms=tiny.window(quick=False),
        namespace_top_dirs=NAMESPACE["num_top_dirs"],
        namespace_dirs_per_top=NAMESPACE["dirs_per_top"],
        namespace_files_per_dir=NAMESPACE["files_per_dir"],
        seed=1,
    )
    kind = {"workload": "single", "op": tiny.single_op} if tiny.single_op else {}
    point = run_point(tiny.setup, SERVERS, config=config, **kind)

    assert rep["completed"] == point.completed > 0
    assert rep["failed"] == point.failed
    assert rep["events_total"] == point.events
    assert rep["sim"]["throughput_ops_s"] == point.throughput_ops_s
    assert rep["sim"]["p99_ms"] == point.p99_ms


def test_traced_repetitions_reproduce_the_digest(spin):
    tiny = replace(WORKLOADS["spotify_cached"], clients_per_server=16, window_ms=10.0)
    digests = {run_repetition(tiny, seed=2, spin=spin, trace=trace)["digest"]
               for trace in (None, "profile", "obs")}
    assert len(digests) == 1
