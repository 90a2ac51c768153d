"""The chaos matrix: named scenarios x setups, verified by the catalogue.

The original single chaos soak grew into :mod:`repro.chaos`; this is now a
matrix of fault-injection scenarios over representative setups from both
stacks, all going through the same engine the ``repro chaos`` CLI drives.
Integrity checks live in :mod:`repro.chaos.invariants` (tested on their
own in tests/chaos/); here we assert end-to-end that every run makes real
progress and ends all-green.
"""

import contextlib
import signal

import pytest

from repro.chaos import run_scenario

MATRIX = [
    ("az-outage-under-load", "hopsfs-3-3"),
    ("az-outage-under-load", "hopsfs-cl-3-3"),
    ("az-outage-under-load", "cephfs"),
    ("rolling-namenode-restarts", "hopsfs-3-3"),
    ("rolling-namenode-restarts", "hopsfs-cl-3-3"),
    ("rolling-namenode-restarts", "cephfs"),
    ("network-partition", "hopsfs-3-3"),
    ("network-partition", "hopsfs-cl-3-3"),
    ("network-partition", "cephfs"),
    # One-AZ deployments: three block replicas still need three datanodes.
    ("rolling-namenode-restarts", "hopsfs-2-1"),
    ("rolling-namenode-restarts", "hopsfs-3-1"),
    ("overload-burst", "hopsfs-2-1"),
    ("overload-burst", "hopsfs-3-1"),
]


@pytest.mark.parametrize("scenario,setup", MATRIX)
def test_chaos_matrix(scenario, setup):
    result = run_scenario(scenario, setup=setup, seed=99)

    # The system made real progress under faults...
    assert result.completed > 500
    # ...the injector executed the whole schedule...
    assert len(result.fault_trace) == len(result.schedule)
    # ...availability was tracked across the run...
    active = [row for row in result.timeline if row["availability"] is not None]
    assert len(active) > 5
    # ...and every invariant holds after heal + drain.
    assert result.all_green, "\n".join(str(v) for v in result.verdicts)


@contextlib.contextmanager
def _wall_clock_cap(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds}s of wall clock")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("setup", ["hopsfs-2-1", "hopsfs-3-1"])
def test_spot_storm_ends_when_the_only_az_loses_every_namenode(setup):
    """These two cells never ended: clients left with an empty view failed
    ops without simulated time passing (~40 k events when they do end)."""
    with _wall_clock_cap(30):
        result = run_scenario("spot-preemption-storm", setup=setup, seed=99)
    assert result.events < 200_000
    assert result.all_green, "\n".join(str(v) for v in result.verdicts)


def test_degraded_link_slows_but_never_breaks():
    result = run_scenario("degraded-link", setup="hopsfs-cl-3-3", seed=99)
    assert result.all_green, "\n".join(str(v) for v in result.verdicts)
    # A latency fault must not fail operations in bulk.
    assert result.failed < 0.05 * max(result.completed, 1)
