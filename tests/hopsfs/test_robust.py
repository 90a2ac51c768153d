"""Gray-failure request path: timeouts, deadlines, hedging, exactly-once."""

import pytest

from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    FileAlreadyExistsError,
    FsError,
    NoNamenodeError,
    ReproError,
    RpcTimeoutError,
    ServerBusyError,
)
from repro.hopsfs import (
    SMALL_FILE_MAX_BYTES,
    AsyncCommitConfig,
    CircuitBreaker,
    GroupAck,
    RetryCache,
    RetryPolicy,
    RobustConfig,
)
from repro.metrics.collectors import MetricsCollector
from repro.types import OpType
from repro.workloads.driver import ClosedLoopDriver

from .conftest import make_fs, run


# ------------------------------------------------------------- unit pieces
def test_retry_policy_backoff_grows_and_caps():
    policy = RetryPolicy(max_retries=5, backoff_base_ms=2.0, backoff_max_ms=10.0)
    assert policy.backoff_ms(1) == 2.0
    assert policy.backoff_ms(2) == 4.0
    assert policy.backoff_ms(3) == 8.0
    assert policy.backoff_ms(4) == 10.0  # capped
    assert policy.backoff_ms(10) == 10.0


def test_retry_policy_jitter_stays_in_band():
    class FakeRng:
        def __init__(self, value):
            self.value = value

        def random(self):
            return self.value

    policy = RetryPolicy(backoff_base_ms=4.0, backoff_max_ms=40.0)
    assert policy.backoff_ms(1, FakeRng(0.0)) == pytest.approx(2.0)  # 0.5x
    assert policy.backoff_ms(1, FakeRng(0.999)) == pytest.approx(5.996)  # ~1.5x


def test_circuit_breaker_opens_after_threshold_and_resets():
    breaker = CircuitBreaker(threshold=2, reset_ms=100.0)
    assert not breaker.record_failure(now=0.0)
    assert breaker.record_failure(now=1.0)  # second failure trips
    assert breaker.is_open(now=50.0)
    assert not breaker.is_open(now=101.0)  # half-open after the window
    breaker.record_success()
    assert not breaker.is_open(now=101.0)
    assert breaker.trips == 1


def test_retry_cache_lru_eviction_and_counters():
    cache = RetryCache(capacity=2)
    cache.put(("c", 1), "a")
    cache.put(("c", 2), "b")
    hit, value = cache.lookup(("c", 1))
    assert hit and value == "a"
    cache.put(("c", 3), "d")  # evicts ("c", 2), the least recently used
    hit, _ = cache.lookup(("c", 2))
    assert not hit
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 2


def test_retry_cache_stores_none_results():
    cache = RetryCache(capacity=4)
    cache.put(("c", 1), None)
    hit, value = cache.lookup(("c", 1))
    assert hit and value is None


def test_robust_config_validation():
    with pytest.raises(ConfigError):
        RobustConfig(op_timeout_ms=0)
    with pytest.raises(ConfigError):
        RobustConfig(deadline_ms=10.0, op_timeout_ms=40.0)
    with pytest.raises(ConfigError):
        RobustConfig(hedge_delay_ms=0)
    with pytest.raises(ConfigError):
        RobustConfig(nn_max_inflight=0)


# ------------------------------------------------------ RPC timeout layer
def test_rpc_timeout_fires_and_late_reply_is_discarded():
    fs = make_fs(num_namenodes=1)
    client = fs.client()
    nn = fs.namenodes[0]

    def scenario():
        yield from fs.await_election()
        # Far tighter than the NN round trip: the call must time out, and
        # the reply that later arrives must be discarded, not delivered.
        with pytest.raises(RpcTimeoutError):
            yield fs.network.call(
                client.addr, nn.addr, "get_active_nns", size=64, timeout_ms=0.001
            )
        yield fs.env.timeout(50)
        return fs.network.late_replies

    assert run(fs, scenario()) == 1


def test_timed_out_mutation_still_commits_server_side():
    """A timeout bounds the *wait*, not the work: the NN still applies it."""
    fs = make_fs(num_namenodes=1)
    client = fs.client()
    nn = fs.namenodes[0]

    def scenario():
        yield from fs.await_election()
        with pytest.raises(RpcTimeoutError):
            yield fs.network.call(
                client.addr, nn.addr, "fs_op",
                (OpType.MKDIR, {"path": "/zombie"}), size=64, timeout_ms=0.001,
            )
        yield fs.env.timeout(50)
        exists = yield from client.exists("/zombie")
        return exists

    assert run(fs, scenario())


# --------------------------------------------------------- robust op loop
def test_robust_op_times_out_and_fails_over():
    """A gray NN (alive, but behind a degraded link) is routed around."""
    # AZ-aware: reads resolve against local replicas, so only the RPCs
    # that cross the degraded link are slow — the gray-failure shape.
    fs = make_fs(
        num_namenodes=2, azs=(2, 3), az_aware=True,
        robust=RobustConfig(op_timeout_ms=4.0, hedge_delay_ms=None),
    )
    client = fs.client(az=2)  # nn1 is in az2, nn2 in az3

    def scenario():
        yield from fs.await_election()
        yield from client.mkdir("/d")
        # Pin the client to the remote NN, then make the inter-AZ link so
        # slow every RPC exceeds the 4ms timeout.
        client.current_nn = fs.namenodes[1].addr
        fs.network.degrade_link(2, 3, extra_ms=20.0)
        result = yield from client.exists("/d")
        return result

    assert run(fs, scenario())
    assert client.timeouts >= 1
    assert client.failovers >= 1
    assert client.current_nn == fs.namenodes[0].addr  # settled on the local NN


def test_deadline_exceeded_when_no_server_answers_in_budget():
    fs = make_fs(
        num_namenodes=2, azs=(2, 3),
        robust=RobustConfig(
            op_timeout_ms=4.0, deadline_ms=12.0, hedge_delay_ms=None,
            retry=RetryPolicy(max_retries=50),
        ),
    )
    client = fs.client(az=2)

    def scenario():
        yield from fs.await_election()
        yield from client.mkdir("/d")
        # Both NNs behind hopelessly slow links: every attempt times out
        # until the 12ms budget burns down.
        fs.network.degrade_link(1, 2, extra_ms=50.0)
        fs.network.degrade_link(2, 3, extra_ms=50.0)
        fs.network.degrade_link(1, 3, extra_ms=50.0)
        start = fs.env.now
        with pytest.raises((DeadlineExceededError, NoNamenodeError)):
            yield from client.op(OpType.EXISTS, path="/d")
        return fs.env.now - start

    elapsed = run(fs, scenario())
    # DeadlineExceededError is an FsError: workload drivers absorb it.
    assert issubclass(DeadlineExceededError, FsError)
    # The op may not outlive its deadline by more than ~one hop.
    assert elapsed <= 12.0 + 4.0 + 1e-9
    assert client.deadline_overruns == []


def test_retry_budget_exhaustion_raises_no_namenode_error():
    fs = make_fs(
        num_namenodes=1,
        robust=RobustConfig(
            op_timeout_ms=2.0, deadline_ms=10_000.0, hedge_delay_ms=None,
            retry=RetryPolicy(max_retries=2, backoff_base_ms=0.5, backoff_max_ms=1.0),
        ),
    )
    client = fs.client()

    def scenario():
        yield from fs.await_election()
        yield from client.mkdir("/d")
        fs.namenodes[0].shutdown()
        with pytest.raises(NoNamenodeError):
            yield from client.op(OpType.EXISTS, path="/d")
        return True

    assert run(fs, scenario())


# ------------------------------------------------------------ hedged reads
def test_hedged_read_fires_and_wins_on_slow_primary():
    fs = make_fs(
        num_namenodes=2, azs=(2, 3), az_aware=True,
        robust=RobustConfig(op_timeout_ms=200.0, hedge_delay_ms=2.0),
    )
    client = fs.client(az=2)

    def scenario():
        yield from fs.await_election()
        yield from client.mkdir("/d")
        client.current_nn = fs.namenodes[1].addr  # remote NN, about to slow
        fs.network.degrade_link(2, 3, extra_ms=30.0)
        result = yield from client.exists("/d")
        return result

    assert run(fs, scenario())
    assert client.hedges >= 1
    assert client.hedge_wins >= 1
    # The winning hedge re-points the client at the faster NN.
    assert client.current_nn == fs.namenodes[0].addr


def test_mutations_never_hedge():
    fs = make_fs(
        num_namenodes=2, azs=(2, 3),
        robust=RobustConfig(op_timeout_ms=200.0, hedge_delay_ms=0.5),
    )
    client = fs.client(az=2)

    def scenario():
        yield from fs.await_election()
        client.current_nn = fs.namenodes[1].addr
        fs.network.degrade_link(2, 3, extra_ms=10.0)
        yield from client.mkdir("/slow-but-exactly-once")
        return True

    assert run(fs, scenario())
    assert client.hedges == 0


# -------------------------------------------------- exactly-once mutations
def _drop_first_create_reply_and_crash(fs, nn):
    """Arrange a post-commit crash: the NN commits, then dies pre-reply."""
    original_reply = fs.network.reply
    state = {"armed": True}

    def hooked(message, payload=None, ok=True, size=None):
        if (
            state["armed"]
            and message.dst == nn.addr
            and message.kind == "fs_op"
            and ok
            and message.payload[0] is OpType.CREATE_FILE
        ):
            state["armed"] = False
            if isinstance(payload, GroupAck):
                # Grouped path: the early ack precedes the commit.  Swallow
                # it, let the batch commit, then pull the plug.
                def die_after_commit():
                    state["batch"] = yield from fs.group_ledger.wait(payload.horizon)
                    nn.shutdown()

                fs.env.process(die_after_commit(), name="die-after-commit")
            else:
                nn.shutdown()  # fails the client's pending RPC; reply is lost
            return
        if size is None:
            original_reply(message, payload, ok=ok)
        else:
            original_reply(message, payload, ok=ok, size=size)

    fs.network.reply = hooked
    return state


@pytest.mark.parametrize(
    "async_commit", [None, AsyncCommitConfig(linger_ms=0.5)], ids=["sync", "grouped"]
)
def test_retried_create_replays_after_post_commit_crash(async_commit):
    """The headline regression: CREATE committed, NN died before replying.

    The retried CREATE lands on the other NN, which finds the durable
    retry_cache row (written in the same transaction as the inode) and
    replays the recorded result instead of failing with
    FileAlreadyExistsError.  Grouped, the first attempt rode a batch that
    committed before the NN died and the retry rides a batch on the
    survivor: both run the same exactly-once body.
    """
    fs = make_fs(
        num_namenodes=2,
        robust=RobustConfig(hedge_delay_ms=None),
        async_commit=async_commit,
    )
    client = fs.client()

    def scenario():
        yield from fs.await_election()
        client.current_nn = fs.namenodes[0].addr
        state = _drop_first_create_reply_and_crash(fs, fs.namenodes[0])
        inode_id = yield from client.create("/precious", data=b"payload")
        content = yield from client.read("/precious")
        return state, inode_id, content

    state, inode_id, content = run(fs, scenario())
    assert not state["armed"] and not fs.namenodes[0].running
    if async_commit is not None:
        assert state["batch"] == "committed"
        assert fs.namenodes[1].committer.ops_grouped == 1
    assert inode_id is not None
    assert content.small_data == b"payload"
    # Applied exactly once: the shared ledger holds one entry for the id.
    applied = [rid for rid, op in fs.mutation_ledger if op == OpType.CREATE_FILE.value]
    assert len(applied) == len(set(applied)) == 1
    # The surviving NN replayed from the durable row, not a re-execution:
    # its in-memory cache never held the id before and now does.
    survivor = fs.namenodes[1].retry_cache
    assert (survivor.hits, len(survivor)) == (0, 1)


def test_legacy_retried_create_still_conflicts_without_robust():
    """Control: the fail-stop path keeps its historical double-apply bug."""
    fs = make_fs(num_namenodes=2)
    client = fs.client()

    def scenario():
        yield from fs.await_election()
        client.current_nn = fs.namenodes[0].addr
        _drop_first_create_reply_and_crash(fs, fs.namenodes[0])
        with pytest.raises(FileAlreadyExistsError):
            yield from client.create("/precious", data=b"payload")
        return True

    assert run(fs, scenario())


def test_retry_cache_in_memory_fast_path_on_same_nn():
    """Same NN, reply lost in transit: the in-memory LRU answers the retry."""
    fs = make_fs(num_namenodes=1, robust=RobustConfig(hedge_delay_ms=None))
    client = fs.client()
    nn = fs.namenodes[0]

    def scenario():
        yield from fs.await_election()
        client.current_nn = nn.addr
        retry_id = (str(client.addr), 1)
        # First delivery: committed and cached server-side.
        result = yield fs.network.call(
            client.addr, nn.addr, "fs_op",
            (OpType.MKDIR, {"path": "/once"}), size=64,
            extra={"retry_id": retry_id},
        )
        # Client-side timeout means the client never saw it; the retry
        # carries the same id and must replay, not conflict.
        replayed = yield fs.network.call(
            client.addr, nn.addr, "fs_op",
            (OpType.MKDIR, {"path": "/once"}), size=64,
            extra={"retry_id": retry_id},
        )
        return result, replayed

    result, replayed = run(fs, scenario())
    assert result == replayed
    assert nn.retry_cache.hits == 1
    assert len(fs.mutation_ledger) == 1


def test_restarted_namenode_replays_from_the_durable_row():
    """The replay LRU dies with the process: after a restart the same
    retry id is answered from its durable retry_cache row, not from
    pre-crash memory, and the mutation is not applied again."""
    fs = make_fs(num_namenodes=1, robust=RobustConfig(hedge_delay_ms=None))
    client = fs.client()
    nn = fs.namenodes[0]
    retry_id = (str(client.addr), 1)

    def mkdir_once():
        return fs.network.call(
            client.addr, nn.addr, "fs_op", (OpType.MKDIR, {"path": "/once"}),
            size=64, extra={"retry_id": retry_id},
        )

    def scenario():
        yield from fs.await_election()
        acked = yield mkdir_once()
        nn.shutdown()
        nn.restart()
        replayed = yield mkdir_once()
        return acked, replayed

    acked, replayed = run(fs, scenario())
    assert replayed == acked
    assert nn.retry_cache.hits == 0
    assert fs.mutation_ledger == [(retry_id, OpType.MKDIR.value)]


# -------------------------------------------------------- admission control
def test_admission_control_sheds_and_clients_recover():
    fs = make_fs(
        num_namenodes=1,
        robust=RobustConfig(
            nn_max_inflight=1, hedge_delay_ms=None,
            retry=RetryPolicy(max_retries=20, backoff_base_ms=0.5, backoff_max_ms=4.0),
        ),
    )
    nn = fs.namenodes[0]
    clients = [fs.client() for _ in range(6)]
    results = []

    def one(client, i):
        yield from client.mkdir(f"/burst{i}")
        results.append(i)

    def scenario():
        yield from fs.await_election()
        procs = [
            fs.env.process(one(c, i), name=f"burst{i}")
            for i, c in enumerate(clients)
        ]
        for proc in procs:
            yield proc
        return True

    assert run(fs, scenario())
    assert sorted(results) == list(range(6))  # every op eventually landed
    assert nn.ops_shed > 0
    assert sum(c.busy_rejections for c in clients) > 0
    # ServerBusyError is retryable client-side, never surfaced to callers.
    assert issubclass(ServerBusyError, FsError)


def test_inflight_gauge_returns_to_zero():
    fs = make_fs(num_namenodes=1, robust=RobustConfig(hedge_delay_ms=None))
    client = fs.client()

    def scenario():
        yield from fs.await_election()
        yield from client.mkdir("/a")
        yield from client.listdir("/")
        return True

    assert run(fs, scenario())
    assert fs.namenodes[0]._inflight == 0


def test_a_restarted_nn_forgets_the_requests_it_died_with():
    """Requests admitted before a crash die with the process: their NDB
    replies are dropped, so they never finish.  The restarted NN must not
    count them against admission, or it sheds everything it is sent."""
    fs = make_fs(num_namenodes=1, robust=RobustConfig(nn_max_inflight=2, hedge_delay_ms=None))
    nn, env = fs.namenodes[0], fs.env
    run(fs, fs.await_election())

    def doomed(client, path):
        try:
            yield from client.mkdir(path)
        except ReproError:
            pass  # whatever the crash does to it, only the NN's count matters

    for i in range(2):
        env.process(doomed(fs.client(), f"/doomed{i}"), name=f"doomed{i}")
    deadline = env.now + 50.0
    while nn.inflight < 2 and env.now < deadline:
        env.step()
    assert nn.inflight == 2
    env.run(until=env.now + 0.5)  # past the handler pool, waiting on NDB
    nn.shutdown()
    env.run(until=env.now + 5.0)
    assert nn.inflight == 2  # the dead requests' processes never finish
    nn.restart()
    assert nn.inflight == 0
    shed = nn.ops_shed
    assert run(fs, fs.client().exists("/")) is True
    assert nn.ops_shed == shed and nn.inflight == 0


# -------------------------------------------------- satellite: bootstrap
def test_bootstrap_exhaustion_counts_as_failover():
    fs = make_fs(num_namenodes=1)
    client = fs.client()

    def scenario():
        yield from fs.await_election()
        fs.namenodes[0].shutdown()
        with pytest.raises(NoNamenodeError):
            yield from client.op(OpType.EXISTS, path="/")
        return True

    assert run(fs, scenario())
    assert client.failovers == 1
    assert client.bootstrap_exhaustions == 1


def test_no_namenode_failures_land_in_failed_latency_buckets():
    fs = make_fs(num_namenodes=1)
    client = fs.client()
    collector = MetricsCollector()

    class OneOpWorkload:
        def next_op(self, client_id=0):
            return OpType.STAT, {"path": "/"}

    driver = ClosedLoopDriver(fs.env, [client], OneOpWorkload(), collector)

    def scenario():
        yield from fs.await_election()
        fs.namenodes[0].shutdown()
        collector.open_window(fs.env.now)
        driver.start()
        yield fs.env.timeout(5.0)
        driver.stop()
        yield fs.env.timeout(5.0)
        collector.close_window(fs.env.now)
        return True

    assert run(fs, scenario())
    assert collector.failed > 0
    assert dict(collector.failed_errors) == {"NoNamenodeError": collector.failed}


# ------------------------------------------- satellite: pipeline retry
def test_create_retries_pipeline_after_dn_failure():
    """A dead pipeline head no longer fails the whole multi-block create."""
    fs = make_fs(num_block_datanodes=4, heartbeats=True)
    client = fs.client()
    size = SMALL_FILE_MAX_BYTES + 1024
    state = {"killed": False}
    original_op = client.op

    def sabotage(op, **kwargs):
        result = yield from original_op(op, **kwargs)
        if op is OpType.ADD_BLOCK and not state["killed"]:
            state["killed"] = True
            victim_addr = result.locations[0]
            victim = next(dn for dn in fs.block_datanodes if dn.addr == victim_addr)
            victim.shutdown()
            # Model completed failure detection (the leader's DN monitor
            # would mark it dead a few heartbeats later).
            for nn in fs.namenodes:
                info = nn.block_manager.dns.get(victim_addr)
                if info is not None:
                    info.alive = False
        return result

    client.op = sabotage

    def scenario():
        yield from fs.await_election()
        yield fs.env.timeout(60)  # DNs register
        yield from client.create("/big", data=b"x" * size)
        nbytes = yield from client.read_data("/big")
        return nbytes

    assert run(fs, scenario()) == size
    assert state["killed"]
    # The abandoned block left no trace: one block row, one id on the inode.
    block_rows = set()
    inode_rows = {}
    for dn in fs.ndb.datanodes.values():
        for pk, row in dn.store.iter_rows("blocks"):
            block_rows.add(pk)
        for _pk, row in dn.store.iter_rows("inodes"):
            inode_rows[row.id] = row
    big = next(row for row in inode_rows.values() if row.name == "big")
    assert len(big.block_ids) == 1
    assert block_rows == set(big.block_ids)


def test_exhausted_view_costs_simulated_time_in_a_closed_loop():
    """A robust client whose view is empty (every NN of its only AZ
    preempted) used to raise bootstrap exhaustion without yielding, so a
    closed-loop driver issued ops for ever at one simulated instant."""
    import time

    fs = make_fs(num_namenodes=1, robust=RobustConfig())
    client = fs.client()
    client.namenode_addrs = []
    give_up = time.perf_counter() + 10.0

    class CappedWorkload:
        issued = 0

        def next_op(self, client_id=0):
            self.issued += 1
            assert self.issued <= 1000 and time.perf_counter() < give_up, (
                f"closed loop spinning at t={fs.env.now}"
            )
            return OpType.STAT, {"path": "/"}

    workload = CappedWorkload()
    collector = MetricsCollector()
    collector.open_window(0)
    ClosedLoopDriver(fs.env, [client], workload, collector).start()
    fs.env.run(until=100.0)
    # One back-off (base 2 ms, jitter 0.5x-1.5x) per failed op.
    assert 100.0 / 3.0 <= workload.issued <= 100.0 / 1.0 + 1
    assert client.bootstrap_exhaustions == workload.issued  # the last one is backing off
    assert collector.failed == workload.issued - 1
    assert collector.completed == 0
