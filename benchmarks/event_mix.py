#!/usr/bin/env python3
"""What the kernel dispatches per simulated op, by kind of entry.

    python3 benchmarks/event_mix.py --workload W [--seed S] [--tree DIR]
                                    [--allow-task BODY ...]

Runs one ``bench_e2e`` repetition of workload ``W`` (full size, seed ``S``)
with its measured window traced into a sink that sorts every dispatched
entry, as ``run`` hands it over before its dispatch, into one of three
kinds:

* **deferred** — a bare ``fn(arg)`` callback (``_Deferred``), by ``fn``;
* **waiter** — an event with a waiter, by its first waiter, or a
  ``_Wakeup`` resuming a process or task (its bootstrap or a re-wait);
* **no waiter** — an event nobody waits on, by its class.

Tracing is schedule-neutral: every sequence number the untraced run
consumes becomes one queued entry, network coalescing included.  So the
entries per op sum to ``sim.events_per_op`` (the window's sequence numbers
per completed op); the command prints both and exits 1 if they differ by
more than 0.1 %.  It also tallies the tasks the window starts per op by
the ``__qualname__`` of their body, with the datanode's (``NdbDatanode.*``)
summed: each ``Environment.start`` call, and each ``_Wakeup`` bootstrap of
a ``spawn``-ed task (a tree whose ``spawn`` goes through ``start`` has
only the former).  ``--tree`` runs the simulator and ``bench_e2e`` of another
checkout whose trace sink receives whole ``(time, priority, seq, item)``
entries.  With ``--allow-task BODY`` (repeatable) it also exits 1 if the
window starts a task whose body is not one of those listed, so a request
path that falls back to a task fails the run.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from functools import partial
from pathlib import Path

TOLERANCE = 0.001


def _name(fn) -> str:
    if isinstance(fn, partial):
        return f"partial({_name(fn.func)})"
    owner = getattr(fn, "__self__", None)
    if owner is not None and not isinstance(owner, type(sys)):
        return f"{type(owner).__name__}.{fn.__name__}"
    return getattr(fn, "__qualname__", type(fn).__name__)


def _classify(item, deferred_mark, wakeup_mark) -> tuple:
    """``(kind, what)`` of one queued entry, read before it is dispatched."""
    cb1 = item._cb1
    if cb1 is deferred_mark:
        return "deferred", _name(item.fn)
    if cb1 is wakeup_mark:
        return "waiter", "_Wakeup " + ("bootstrap" if item.source is None else "re-wait")
    if cb1 is None:
        return "no waiter", type(item).__name__ + ("" if item._ok else " (failed)")
    extra = f" +{len(item._cbs)}" if item._cbs else ""
    return "waiter", f"{type(item).__name__} -> {_name(cb1)}{extra}"


def _body(generator) -> str:
    return getattr(generator, "__qualname__", type(generator).__name__)


class _MixSink:
    """An ``env.trace`` sink that tallies each dispatched entry by kind, and
    each spawned task's first step by body."""

    def __init__(self, mix: Counter, tasks: Counter, deferred_mark, wakeup_mark, task_cls):
        self.mix = mix
        self.tasks = tasks
        self.marks = (deferred_mark, wakeup_mark)
        self.task_cls = task_cls

    def append(self, entry) -> None:
        item = entry[3]
        self.mix[_classify(item, *self.marks)] += 1
        if item._cb1 is self.marks[1] and item.source is None and type(item.process) is self.task_cls:
            self.tasks[_body(item.process._generator)] += 1


def traced_window(mix: Counter, tasks: Counter):
    """A stand-in for ``bench_e2e.harness._run_window`` that runs the window
    in one ``run`` traced into a :class:`_MixSink` over ``mix`` and tallies
    each task started into ``tasks``."""
    from repro.sim import kernel
    from repro.sim.kernel import _DEFERRED_MARK, _WAKEUP_MARK, Environment

    real_start = Environment.start
    window = []

    def start(env, generator):
        if window:
            tasks[_body(generator)] += 1
        return real_start(env, generator)

    # Installed for the whole repetition, not just the window: a callback
    # chain may hold a bound ``env.start`` from before the window (a
    # namenode miss's handler-pool job does) and start its task inside it.
    Environment.start = start

    def run_window(env, window_ms, spin, _profiler):
        # Tracing is what makes the tally exact (task ends, no coalescing).
        env.trace = _MixSink(mix, tasks, _DEFERRED_MARK, _WAKEUP_MARK, getattr(kernel, "Task", None))
        window.append(True)
        try:
            env.run(until=env.now + window_ms)  # the horizon of the window's last slice
        finally:
            window.clear()
            Environment.start = real_start
        env.trace = None
        return {"raw_s": 1.0, "raw_cpu_s": 1.0, "s": 1.0, "first_spin_s": spin.seconds()}

    return run_window


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and bench_e2e/ run (default: this one)")
    parser.add_argument("--allow-task", action="append", metavar="BODY",
                        help="a task body the window may start (repeatable): any other fails")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":  # as bench_e2e/run.py pins it
        os.execve(sys.executable, [sys.executable] + sys.orig_argv[1:],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree)]

    import bench_e2e.harness as harness
    from bench_e2e.calibration import Spin
    from bench_e2e.workloads import WORKLOADS

    mix, tasks = Counter(), Counter()
    harness._run_window = traced_window(mix, tasks)
    rep = harness.run_repetition(WORKLOADS[args.workload], args.seed, Spin())
    ops = rep["completed"]
    seq_per_op = rep["layer_counters"]["sim.events_per_op"]
    per_op = {key: n / ops for key, n in mix.items()}

    print(f"workload {args.workload}  seed {args.seed}  window {rep['window_ms']:g} sim-ms  "
          f"{ops} ops  {rep['failed']} failed")
    print(f"{'entries/op':>10}  kind / what")
    for kind in ("deferred", "waiter", "no waiter"):
        rows = sorted(((n, what) for (k, what), n in per_op.items() if k == kind), reverse=True)
        print(f"{sum(n for n, _ in rows):10.3f}  {kind}")
        for n, what in rows:
            print(f"{n:10.3f}      {what}")
    total = sum(per_op.values())
    gap = abs(total - seq_per_op) / seq_per_op
    print(f"{total:10.3f}  dispatched entries per op")
    print(f"{seq_per_op:10.3f}  sim.events_per_op (sequence numbers per op)  gap {gap:.4%}")
    print(f"{'tasks/op':>10}  body")
    for what, n in sorted(tasks.items(), key=lambda item: (-item[1], item[0])):
        print(f"{n / ops:10.3f}      {what}")
    ndb = sum(n for what, n in tasks.items() if what.startswith("NdbDatanode."))
    print(f"{sum(tasks.values()) / ops:10.3f}  tasks started per op, "
          f"{ndb / ops:.3f} of them NdbDatanode.*")
    status = 0
    if gap > TOLERANCE:
        print(f"the kinds do not sum to sim.events_per_op within {TOLERANCE:.1%}")
        status = 1
    if args.allow_task is not None:
        unlisted = sorted(set(tasks) - set(args.allow_task))
        if unlisted:
            print(f"the window starts tasks not allowed: {', '.join(unlisted)}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
