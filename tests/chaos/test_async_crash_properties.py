"""Property: crashes mid-group-commit never violate the durability horizon.

Hypothesis draws (workload seed, batch policy, crash point, victim) and
crashes either a namenode or an NDB datanode while async group-commit
batches are lingering, flushing and committing.  After recovery and a
drain, the durability-horizon invariant must hold: every committed batch
is fully applied, every aborted/lost batch is all-or-nothing, and no
fsync-confirmed horizon is uncommitted — alongside namespace integrity
and exactly-once.

Two test functions x 100 examples each = 200 generated crash cases, the
acceptance floor for this harness.  ``derandomize=True`` pins the draw
sequence; nothing here depends on the wall clock.
"""

import gc
import random
import types
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.invariants import (
    durability_horizon,
    exactly_once,
    namespace_integrity,
    no_stuck_state,
)
from repro.chaos.scenarios import run_scenario
from repro.hopsfs import RobustConfig
from repro.hopsfs.groupcommit import AsyncCommitConfig

from ..hopsfs.conftest import make_fs

_settings = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,  # CI-stable: the draw sequence is fixed
    suppress_health_check=[HealthCheck.too_slow],
)

_policy = st.tuples(
    st.floats(0.2, 5.0, allow_nan=False),  # linger_ms
    st.integers(1, 16),  # max_batch_ops
    st.integers(1, 4),  # max_inflight_batches
)
_crash_at = st.floats(2.0, 40.0, allow_nan=False)
_hold = st.floats(5.0, 40.0, allow_nan=False)


def _run_case(workload_seed, policy, crash_at, hold, victim_rank, crash_kind):
    linger_ms, max_batch_ops, max_inflight = policy
    fs = make_fs(
        num_namenodes=2,
        robust=RobustConfig(),
        async_commit=AsyncCommitConfig(linger_ms=linger_ms, max_batch_ops=max_batch_ops),
        seed=workload_seed % 1000,
        # Fast reaping of transactions abandoned by the crash (the chaos
        # harness uses the same knob); the default 5s dwarfs the horizon.
        inactive_timeout_ms=120.0,
    )
    for nn in fs.namenodes:
        nn.committer.max_inflight_batches = max_inflight
    env = fs.env
    stop_ms = crash_at + hold + 30.0
    attempts = []

    def worker(client, rng, base):
        made = []
        n = 0
        while env.now < stop_ms:
            n += 1
            r = rng.random()
            try:
                if r < 0.45 or not made:
                    path = f"{base}/d{n}"
                    yield from client.mkdir(path)
                    made.append(path)
                elif r < 0.70:
                    path = f"{base}/f{n}"
                    yield from client.create(path, data=b"x" * rng.randrange(1, 64))
                    made.append(path)
                elif r < 0.85:
                    yield from client.delete(made.pop())
                else:
                    yield from client.fsync()
                attempts.append(True)
            except Exception:
                # Crash-window failures (unreachable NN, lost horizon,
                # deadline) are expected; the audit below is server-side.
                attempts.append(False)
            yield env.timeout(rng.uniform(0.1, 1.5))

    rng = random.Random(workload_seed)
    for i in range(4):
        client = fs.client()
        env.process(
            worker(client, random.Random(rng.randrange(2**31)), f"/w{i}"),
            name=f"crash-worker{i}",
        )

    def chaos():
        yield env.timeout(crash_at)
        if crash_kind == "nn":
            victim = fs.namenodes[victim_rank % len(fs.namenodes)]
            victim.shutdown()
            yield env.timeout(hold)
            victim.restart()
        else:
            addrs = sorted(fs.ndb.datanodes, key=str)
            victim = addrs[victim_rank % len(addrs)]
            fs.ndb.crash_datanode(victim, detect_now=True)
            yield env.timeout(hold)
            yield from fs.ndb.restart_datanode(victim)

    env.process(chaos(), name="chaos")
    # Load window plus a drain: lingering batches flush, the reaper clears
    # transactions the dead node abandoned, recovery copy completes.
    env.run(until=stop_ms + 400.0)

    assert attempts, "no client op ever ran"
    grouped = sum(nn.committer.ops_grouped for nn in fs.namenodes if nn.committer)
    assert grouped > 0, "the crash case never exercised group commit"
    for invariant in (durability_horizon, namespace_integrity, exactly_once, no_stuck_state):
        verdict = invariant(fs)
        assert verdict.ok, f"{verdict.name}: {verdict.detail}"


@given(
    workload_seed=st.integers(0, 2**20),
    policy=_policy,
    crash_at=_crash_at,
    hold=_hold,
    victim_rank=st.integers(0, 3),
)
@_settings
def test_namenode_crash_mid_group_commit(workload_seed, policy, crash_at, hold, victim_rank):
    _run_case(workload_seed, policy, crash_at, hold, victim_rank, "nn")


@given(
    workload_seed=st.integers(0, 2**20),
    policy=_policy,
    crash_at=_crash_at,
    hold=_hold,
    victim_rank=st.integers(0, 3),
)
@_settings
def test_ndb_datanode_crash_mid_group_commit(workload_seed, policy, crash_at, hold, victim_rank):
    _run_case(workload_seed, policy, crash_at, hold, victim_rank, "ndb")


@pytest.mark.parametrize(
    "scenario", ["async-commit-crash", "rolling-namenode-restarts", "overload-burst"]
)
def test_a_crashed_namenodes_group_commit_tasks_do_not_stay_parked(scenario):
    """A namenode crash closes the tasks of its life: the requests it
    admitted (``_serve``, an ``_fsync`` inside one) and the group
    committer's drain, members and flushes.  Before, one parked on an NDB
    call whose reply went to the dead NN never resumed, nor did what waited
    on it.  At the end of each NN-crash cell on ``HopsFS (2,1)``, seed 99,
    none of them may be left parked."""
    result = run_scenario(scenario, "HopsFS (2,1)", seed=99, clients=16)
    assert result.all_green
    env = result.extra["harness"].env
    parked = Counter(
        obj.gi_code.co_qualname
        for obj in gc.get_objects()
        if isinstance(obj, types.GeneratorType)
        and obj.gi_frame is not None
        and obj.gi_code.co_qualname
        in ("GroupCommitter._member", "GroupCommitter._flush", "GroupCommitter._drain",
            "Namenode._serve", "Namenode._fsync")
        and obj.gi_frame.f_locals["self"].env is env
    )
    assert parked == Counter()
