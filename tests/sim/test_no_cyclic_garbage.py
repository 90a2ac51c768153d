"""Finished processes and tasks must be freed by reference counting alone.

DESIGN.md §4: "no reference cycle may outlive a finished process".  Each
test runs with the automatic collector off, then collects under
``DEBUG_SAVEALL`` so everything only the cyclic collector could free lands
in ``gc.garbage``, and checks that no kernel object and no error the
request path caught or raised is among it.
"""

import gc
import types
from collections import Counter
from contextlib import contextmanager
from functools import partial

from repro.chaos.scenarios import run_scenario
from repro.errors import ReproError
from repro.experiments.setups import SETUPS
from repro.hopsfs.groupcommit import _BatchCtx
from repro.hopsfs.namenode import Namenode
from repro.hopsfs.listcache import ListingCache, ListingCacheConfig
from repro.metrics.collectors import MetricsCollector
from repro.net.server import Server
from repro.sim import Environment, Event, Process, Task
from repro.sim.kernel import _CLOSED, _Deferred
from repro.workloads.driver import ClosedLoopDriver
from repro.workloads.namespace import generate_namespace
from repro.workloads.spotify import SpotifyWorkload

# Kernel entries (``_Deferred`` covers a ``CorePool.call`` job) and events
# (processes included), and the ``partial`` stages callback chains register.
_WATCHED_GARBAGE = (Event, Task, _Deferred, partial, types.GeneratorType, types.MethodType,
                    types.BuiltinMethodType, ReproError)


@contextmanager
def _cyclic_garbage():
    """Yields a Counter filled, on exit, with the type names of the kernel
    objects and errors that only the cyclic collector could reclaim."""
    found = Counter()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield found
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found.update(type(o).__name__ for o in gc.garbage
                     if isinstance(o, _WATCHED_GARBAGE))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def test_process_storm_leaves_no_cyclic_garbage():
    with _cyclic_garbage() as found:
        env = Environment()
        done = []

        def leaf(i):
            yield env.timeout(i % 7)
            return i

        def failing():
            yield env.timeout(1)
            raise ValueError("handled by the parent")

        def parent(i):
            value = yield env.process(leaf(i))
            try:
                yield env.process(failing())
            except ValueError:
                pass
            done.append(value)

        def non_event():
            yield 42

        for i in range(500):
            env.process(parent(i))
        bad = env.process(non_event())
        bad.defuse()
        env.run()
        assert sorted(done) == list(range(500))
        assert not bad.ok
        del env, bad
    assert not found


def test_task_storm_leaves_no_cyclic_garbage():
    with _cyclic_garbage() as found:
        env = Environment()
        done = []

        def leaf(i):
            yield env.timeout(i % 7)
            return i

        def task(i):
            value = yield env.process(leaf(i))
            timer = env.timeout(i % 3)
            yield timer
            yield timer  # processed: resumes through a _Wakeup
            done.append(value)

        def caught():
            try:
                yield env.process(leaf(-1))
                raise ValueError("handled inside the task")
            except ValueError:
                done.append("caught")

        for i in range(500):
            (env.start if i % 2 else env.spawn)(task(i))
        env.spawn(caught())
        env.run()
        assert sorted(done, key=str) == sorted([*range(500), "caught"], key=str)
        del env
    assert not found


def test_nested_starts_leave_no_cyclic_garbage():
    """A task that starts another before its own first yield, as a local
    NDB chain hop does from inside the handler that dispatches it."""
    with _cyclic_garbage() as found:
        env = Environment()
        done = []

        def failing():
            yield env.timeout(1)
            raise ValueError("handled by the hop")

        def hop(i, depth):
            if depth:
                env.start(hop(i, depth - 1))
            timer = env.timeout(i % 3)
            yield timer
            yield timer  # processed: resumes through a _Wakeup
            try:
                yield env.process(failing())
            except ValueError:
                done.append((i, depth))

        for i in range(300):
            (env.start if i % 2 else env.spawn)(hop(i, 3))
        env.run()
        assert len(done) == 1200
        del env
    assert not found


def test_hopsfs_point_leaves_no_cyclic_garbage():
    # run_point's own sequence, unrolled so the deployment is still alive
    # (and so not itself garbage) when the collector looks.
    with _cyclic_garbage() as found:
        adapter = SETUPS["HopsFS-CL (3,3)"].build(2, seed=0)
        env = adapter.env
        namespace = generate_namespace(seed=0, num_top_dirs=2, dirs_per_top=4, files_per_dir=4)
        adapter.install(namespace)
        env.run_process(adapter.ready(), until=env.now + 60_000)
        generator = SpotifyWorkload(namespace, seed=0)
        clients = adapter.make_clients(16)
        adapter.warm_client_caches(clients, generator)
        collector = MetricsCollector()
        ClosedLoopDriver(env, clients, generator, collector).start()
        collector.open_window(env.now)
        env.run(until=env.now + 15.0)
        collector.close_window(env.now)
        assert collector.completed > 50
    assert adapter is not None
    assert not found


def test_listing_cache_point_leaves_no_cyclic_garbage(monkeypatch):
    """Read-front hits end as handler-pool callback chains; misses, and hits
    whose probe an invalidation broke during the pool wait, go on as tasks."""
    outcomes = Counter()
    serve = ListingCache.serve

    def counting_serve(cache, op, kwargs, probe):
        served = serve(cache, op, kwargs, probe)
        outcomes["checked" if served is probe else "walked again"] += 1
        return served

    monkeypatch.setattr(ListingCache, "serve", counting_serve)
    with _cyclic_garbage() as found:
        adapter = SETUPS["HopsFS-CL (3,3)"].build(
            2, seed=0, listing_cache=ListingCacheConfig())
        env = adapter.env
        namespace = generate_namespace(seed=0, num_top_dirs=2, dirs_per_top=4, files_per_dir=4)
        adapter.install(namespace)
        env.run_process(adapter.ready(), until=env.now + 60_000)
        generator = SpotifyWorkload(namespace, seed=0)
        clients = adapter.make_clients(64)
        adapter.warm_client_caches(clients, generator)
        collector = MetricsCollector()
        ClosedLoopDriver(env, clients, generator, collector).start()
        collector.open_window(env.now)
        env.run(until=env.now + 15.0)
        collector.close_window(env.now)
        caches = [nn.listing_cache for nn in adapter.deployment.namenodes]
        assert sum(cache.misses for cache in caches) > 0
        assert outcomes["checked"] > 50 and outcomes["walked again"] > 0, outcomes
    assert adapter is not None
    assert not found


def _clients_of(result):
    clients = result.extra["harness"].clients  # keeps the deployment alive
    return (sum(c.busy_rejections for c in clients), sum(c.timeouts for c in clients),
            sum(c.failovers for c in clients))


def test_robust_request_loop_leaves_no_cyclic_garbage():
    """Shed, timed out and failed over: the loop keeps caught errors without
    their traceback, and a hedged read holds no failed event as it raises."""
    with _cyclic_garbage() as found:
        result = run_scenario("overload-burst", setup="hopsfs-cl-3-3", load_ms=200.0)
        busy, timeouts, failovers = _clients_of(result)
        assert busy > 0 and timeouts > 0 and failovers > 0
        assert result.extra["collector"].failed_errors["FileNotFoundFsError"] > 0
    assert not found


def test_fail_stop_request_loop_leaves_no_cyclic_garbage():
    """An AZ outage under a fail-stop client: fail-overs, remote
    ``FileNotFoundFsError`` replies, and NDB commits aborted by a dead
    replica, whose TC handler keeps the failed events in its frame."""
    with _cyclic_garbage() as found:
        result = run_scenario("az-outage-under-load", setup="hopsfs-cl-3-3", clients=8)
        busy, timeouts, failovers = _clients_of(result)
        assert (busy, timeouts) == (0, 0) and failovers > 0
        assert result.extra["collector"].failed_errors["FileNotFoundFsError"] > 0
    assert not found


def test_group_commit_retries_leave_no_cyclic_errors():
    """An NN crash under async commit aborts group-commit batches; the
    committer keeps the abort for the batch retry without its traceback,
    and the gather's ``any_of([wake, timer])`` lets go of a ``wake`` that
    never fires."""
    with _cyclic_garbage() as found:
        result = run_scenario("async-commit-crash", setup="hopsfs-cl-3-3")
        namenodes = result.extra["harness"].deployment.namenodes
        assert sum(nn.committer.batches_committed for nn in namenodes) > 0
    assert not found


def test_a_crashed_namenodes_closed_tasks_leave_no_cyclic_garbage(monkeypatch):
    """An NN crash closes the tasks of its life: its requests' ``_serve``
    tasks and the group committer's drain, members and flushes, and the
    network drops the RPCs they issued.  So nothing keeps a closed task or
    process reachable: reference counting frees each one (the closed
    group-commit members and the flush's condition over them included),
    and none is left behind as a cycle either."""
    closed = Counter()

    def counting(nn):
        closed["requests"] += sum(task is not None for task in nn._requests.values())
        closed["batches"] += sum(isinstance(work, _BatchCtx) for work in nn._loops.values())
        Server.shutdown(nn)

    monkeypatch.setattr(Namenode, "shutdown", counting)
    with _cyclic_garbage() as found:
        result = run_scenario("async-commit-crash", setup="HopsFS (2,1)", clients=16)
        assert result.all_green
        assert closed["requests"] > 0 and closed["batches"] > 0, closed
        left = [o for o in gc.get_objects()
                if isinstance(o, (Task, Process)) and o._generator is _CLOSED]
        assert not left, [getattr(o, "name", "task") for o in left]
    assert not found


def test_namenode_churn_leaves_no_cyclic_garbage():
    """Rolling add/decommission under async commit: drained committers
    leave their gathers' never-fired wake events behind."""
    with _cyclic_garbage() as found:
        result = run_scenario("nn-churn", setup="hopsfs-cl-3-3")
        deployment = result.extra["harness"].deployment
        assert sum(nn.committer.batches_committed for nn in deployment.namenodes) > 0
    assert not found


def test_a_triggered_condition_lets_go_of_pending_events():
    """The observer leaves every event still pending; one left with no
    waiter is defused, so its later failure stays absorbed as before."""
    env = Environment()
    never, failing, shared = env.event(), env.event(), env.event()
    waiter_log = []
    shared.add_callback(waiter_log.append)
    timer = env.timeout(1)
    cond = env.any_of([never, failing, shared, timer])
    env.run(until=2)
    assert cond.triggered and cond.ok
    for event in (never, failing):
        assert event._cb1 is None and event._cbs is None and event._defused
    assert shared._cb1 == waiter_log.append and shared._cbs == [] and not shared._defused
    failing.fail(ValueError("nobody waits any more"))
    shared.succeed("still delivered")
    env.run()  # neither raises: the failure stays absorbed
    assert waiter_log == [shared]

    # All-of: a failed member triggers it; the others are let go of too.
    env = Environment()
    ok, bad, later = env.event(), env.event(), env.event()
    cond = env.all_of([ok, bad, later])
    cond.defuse()
    ok.succeed()
    bad.fail(KeyError("first failure wins"))
    env.run()
    assert not cond.ok and isinstance(cond.value, KeyError)
    assert later._cb1 is None and later._defused
    later.fail(KeyError("after the fact"))
    env.run()


def test_finished_process_still_behaves():
    env = Environment()

    def quick():
        yield env.timeout(1)
        return "done"

    proc = env.process(quick())
    late = []
    env.schedule_after(2.0, lambda _arg: late.append(proc.value))
    env.run()
    assert late == ["done"] and not proc.is_alive

    # A finished process is still a waitable, already-processed event.
    def waiter():
        return (yield proc)

    assert env.run_process(waiter()) == "done"
    assert env.run_process(quick()) == "done"
