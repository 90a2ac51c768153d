"""Set-up call budget: what a deployment costs before its window opens.

    python -m pytest benchmarks/test_setup_budget.py        # check
    python3 benchmarks/repin.py [--check] setup_budget      # the same, or re-pin

Every figure point, chaos cell, benchmark repetition and scale shard
builds a deployment, installs the namespace, waits for it to be ready,
makes its clients and warms their caches before it measures anything.
This counts the function calls (Python and C) those phases make for the
four ``BENCHMARK.json`` configurations at seed 0 — the sequence
``bench_e2e/harness.py`` times as ``setup_s`` — per installed namespace
row, and the GC-tracked objects the install leaves per row
(``install.tracked_per_row``: what every later full collection walks, so a
per-row wrapper object shows up here).  For one interpreter version the
counts repeat to the last digit, so unlike ``setup_s`` they can be gated
tightly, by ``test_call_budget``'s rule: a count per row may not rise more
than 0.5 % above ``benchmarks/results/setup_budget.json`` (it may fall:
re-pin to bank the saving).  The file is the ``setup_budget`` pin of ``benchmarks/pins.py``;
:func:`record` produces it.

The counts include C calls, which CPython versions make differently: the
record is for the 3.11 the CI jobs pin.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import subprocess
import sys

import pytest

from .pins import ROOT
from .test_call_budget import _workloads, budget_file, check_budget

SEED = 0


def _counted(fn, *args, **kwargs):
    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args, **kwargs)
    return result, sum(entry.callcount for entry in profiler.getstats())


def count(name: str) -> dict:
    """Calls per installed row of each set-up phase of workload ``name``.
    Runs in the child process of :func:`measure` (``--count``)."""
    sys.path.insert(0, str(ROOT / "src"))
    from bench_e2e.harness import NAMESPACE, make_generator
    from bench_e2e.workloads import SERVERS, WORKLOADS
    from repro.experiments.setups import SETUPS
    from repro.workloads.namespace import generate_namespace

    workload = WORKLOADS[name]
    calls = {}
    harness, calls["build"] = _counted(
        SETUPS[workload.setup].build, SERVERS, seed=SEED,
        listing_cache=workload.cache_config())
    env = harness.env

    def install():
        namespace = generate_namespace(seed=SEED, **NAMESPACE)
        harness.install(namespace)
        return namespace

    def clients():
        generator = make_generator(workload, namespace, SEED)
        made = harness.make_clients(workload.clients_per_server * SERVERS)
        harness.warm_client_caches(made, generator)

    gc.collect()
    tracked = len(gc.get_objects())
    namespace, calls["install"] = _counted(install)
    gc.collect()
    tracked = len(gc.get_objects()) - tracked
    _, calls["ready"] = _counted(env.run_process, harness.ready(), until=env.now + 60_000)
    _, calls["clients"] = _counted(clients)
    calls["setup"] = sum(calls.values())
    rows = namespace.size()
    return {
        **{f"{phase}.calls_per_row": n / rows for phase, n in calls.items()},
        "install.tracked_per_row": tracked / rows,
    }


def measure(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "benchmarks.test_setup_budget", "--count", workload],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} exited {out.returncode}\n{out.stdout}{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def record() -> dict:
    return budget_file(
        "PYTHONHASHSEED=0 python3 -m benchmarks.test_setup_budget --count W  (seed 0)", measure)


@pytest.mark.parametrize("workload", _workloads())
def test_setup_budget(workload):
    check_budget("setup_budget", workload, measure(workload))


if __name__ == "__main__":  # the child process of ``measure``: --count W
    print(json.dumps(count(sys.argv[2])))
