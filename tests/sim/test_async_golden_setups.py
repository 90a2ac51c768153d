"""Golden-schedule guard for the async group-commit opt-in.

``HopsFsConfig.async_commit=None`` (the default) must leave every one of
the nine evaluation setups bit-identical to the pre-async-commit tree:
same (time, priority, seq) dispatch trace, same completion counts.  The
goldens in ``golden/golden_setups.json`` were captured on the tree
*before* the group-commit path landed, so any event, RNG draw, or
ordering change the plumbing leaks into the default path fails here.

The file is the ``golden_setups`` pin of ``benchmarks/pins.py`` (producer:
:func:`golden_setups`); after an *intentional* schedule change re-pin it
with ``python3 benchmarks/repin.py golden_setups`` and say why in the
commit message.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.setups import SETUPS
from repro.metrics.collectors import MetricsCollector
from repro.sim import dispatch_hash
from repro.workloads import ClosedLoopDriver, SpotifyWorkload, generate_namespace

_GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_setups.json"


@pytest.fixture(autouse=True)
def _pin_bench_scale(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "1.0")


def _golden():
    with open(_GOLDEN_PATH) as fh:
        return json.load(fh)


def _mini_setup_trace(name):
    """One small traced run of ``name`` with the default (sync) config."""
    spec = SETUPS[name]
    adapter = spec.build(2, seed=11)
    env = adapter.env
    env.trace = []  # record every dispatch; disables send batching
    namespace = generate_namespace(
        num_top_dirs=2, dirs_per_top=4, files_per_dir=4, seed=11
    )
    adapter.install(namespace)
    env.run_process(adapter.ready(), until=env.now + 60_000)
    clients = adapter.make_clients(6)
    workload = SpotifyWorkload(namespace, seed=11, tag=name)
    collector = MetricsCollector()
    collector.open_window(env.now)
    driver = ClosedLoopDriver(env, clients, workload, collector)
    driver.start()
    env.run(until=env.now + 40.0)
    driver.stop()
    # Let in-flight ops finish so the trace tail is workload-, not
    # cutoff-, determined.
    env.run(until=env.now + 100.0)
    collector.close_window(env.now)
    return {
        "trace_len": len(env.trace),
        "trace_sha256": dispatch_hash(env.trace),
        "completed": collector.completed,
        "failed": collector.failed,
    }


def golden_setups():
    """The whole golden file; needs ``REPRO_BENCH_SCALE=1`` like the tests."""
    return {name: _mini_setup_trace(name) for name in sorted(SETUPS)}


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_default_path_matches_pre_async_goldens(name):
    assert _mini_setup_trace(name) == _golden()[name]

