"""Every combination of the four opt-in paths builds, serves and verifies.

``robust``, ``async_commit``, ``elastic`` and ``listing_cache`` are parts
each namenode, client and deployment builds once; a path that is off is a
part that does nothing.  Each of the 16 combinations here runs a short
Spotify window on ``HopsFS-CL (3,3)``, drains, and must leave every chaos
invariant green with no failure but the generator's own race
(``FileNotFoundFsError``: a path deleted or renamed between being picked and
being used).  The all-off deployment must also start nothing the paths own.
"""

import itertools

import pytest

from repro.chaos.invariants import verify_target
from repro.experiments.setups import PATHS, SETUPS
from repro.hopsfs import AsyncCommitConfig, ElasticConfig, ListingCacheConfig, RobustConfig
from repro.metrics.collectors import MetricsCollector
from repro.workloads.driver import ClosedLoopDriver
from repro.workloads.namespace import generate_namespace
from repro.workloads.spotify import SpotifyWorkload

SETUP, SERVERS, SEED, CLIENTS = "HopsFS-CL (3,3)", 3, 3, 24
WINDOW_MS, DRAIN_MS = 60.0, 400.0
ON = {
    "robust": RobustConfig(),
    "async_commit": AsyncCommitConfig(),
    "elastic": ElasticConfig(autoscale=False, membership_refresh_ms=25.0),
    "listing_cache": ListingCacheConfig(),
}
COMBINATIONS = [
    combo for n in range(len(ON) + 1) for combo in itertools.combinations(sorted(ON), n)
]


def _run(combo):
    """Build, install, serve a window, stop and drain; the harness, the
    window's collector and the clients."""
    harness = SETUPS[SETUP].build(SERVERS, seed=SEED, **{name: ON[name] for name in combo})
    env = harness.env
    namespace = generate_namespace(num_top_dirs=4, dirs_per_top=8, files_per_dir=8, seed=SEED)
    harness.install(namespace)
    env.run_process(harness.ready(), until=env.now + 60_000)
    clients = harness.make_clients(CLIENTS)
    collector = MetricsCollector()
    collector.open_window(env.now)
    driver = ClosedLoopDriver(env, clients, SpotifyWorkload(namespace, seed=SEED), collector)
    driver.start()
    env.run(until=env.now + WINDOW_MS)
    driver.stop()
    env.run(until=env.now + DRAIN_MS)
    collector.close_window(env.now)
    return harness, collector, clients


def test_the_combinations_are_every_subset_of_the_config_paths():
    assert set(ON) == set(PATHS)
    assert len(set(COMBINATIONS)) == 16


@pytest.mark.parametrize("combo", COMBINATIONS, ids=lambda c: "+".join(c) or "none")
def test_combination_serves_and_verifies(combo):
    harness, collector, _clients = _run(combo)
    assert collector.completed > 0
    red = [v for v in verify_target(harness) if not v.ok]
    assert not red, red
    assert set(collector.failed_errors) <= {"FileNotFoundFsError"}, collector.failed_errors


def test_all_off_starts_nothing_the_paths_own():
    harness, _collector, clients = _run(())
    dep = harness.deployment
    assert dep.ndb.changelog.subscribers == ()
    assert dep.ndb.changelog.published == 0
    assert dep.autoscaler is None
    assert all(c.membership_refreshes == 0 for c in clients)
    assert not [name for name in dep.rng._streams if name.endswith(":retry")]
    assert not [name for name in dep.rng._streams if name.startswith("groupcommit:")]
    assert dep.group_ledger.batches == {}
    assert not dep.mutation_ledger


def test_all_on_starts_what_the_paths_own():
    harness, _collector, clients = _run(tuple(ON))
    dep = harness.deployment
    assert set(dep.ndb.changelog.subscribers) == {nn.addr for nn in dep.namenodes}
    assert all(c.membership_refreshes > 0 for c in clients)
    assert all(f"client:{c.addr.index}:retry" in dep.rng._streams for c in clients)
    assert dep.group_ledger.batches and dep.mutation_ledger
