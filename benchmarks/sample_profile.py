#!/usr/bin/env python3
"""Where the host time of a benchmark window goes, by stack sampling.

    python3 benchmarks/sample_profile.py --workload W --seed S [--setup]

Runs ``REPETITIONS`` full-size ``bench_e2e`` repetitions of workload ``W``
(seed ``S``) untraced, with a process-CPU-time interval timer
(``ITIMER_PROF``) set to 0.5 ms during each measured window.  The kernel
delivers it no faster than its scheduler tick (every 4 ms of CPU at
250 Hz), so the header prints the interval achieved.  Each
``SIGPROF`` records the interrupted Python stack if ``Environment.run`` is on
it; a sample taken in a calibration spin between slices is dropped.  Time
in a C call counts to the Python frame that made it.  Printed, as shares of
the kept samples:

* by function: *self* (the innermost frame) and *inclusive* (every
  function on the stack up to ``Environment.run``, once per sample);
* by layer, the package under ``src/repro/`` a function's file lives in
  (``bench_e2e.layers``): self and inclusive the same way.

Unlike cProfile (``--trace 1``), sampling adds no cost per call, so it
does not inflate call-heavy code.  It only reads stacks, so it cannot move
the schedule: the printed window digest must equal the one
``bench_e2e/run.py --workload W --seed S`` reports.

``--setup`` samples set-up instead: ``REPETITIONS`` times the build,
install, ready and clients phases that ``bench_e2e`` times as ``setup_s``
(the sequence ``benchmarks/test_setup_budget.py`` counts), with the timer
on from the build to the warmed clients.  Every sample is kept; the same
tables follow one more, by phase.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import signal
import sys
import time
from collections import Counter
from pathlib import Path

INTERVAL_S = 0.0005
REPETITIONS = 10
TOP = 60


class _Sampler:
    """The ``SIGPROF`` handler: tallies stacks that reach ``stop_code``, by
    function and by ``layer(code)``."""

    def __init__(self, stop_code, layer):
        self.stop_code = stop_code
        self.layer = layer
        self.self_counts: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_layers: Counter = Counter()
        self.inclusive_layers: Counter = Counter()
        self.phase = None  # set-up phase under way (``--setup``)
        self.phases: Counter = Counter()
        self.kept = self.dropped = 0

    def __call__(self, _signum, frame) -> None:
        stack = []
        while frame is not None:
            code = frame.f_code
            stack.append(code)
            if code is self.stop_code:
                break
            frame = frame.f_back
        else:
            self.dropped += 1
            return
        self.kept += 1
        codes = set(stack)
        self.self_counts[stack[0]] += 1
        self.inclusive.update(codes)
        self.self_layers[self.layer(stack[0])] += 1
        self.inclusive_layers.update({self.layer(code) for code in codes})
        self.phases[self.phase] += 1


@contextlib.contextmanager
def _timer_on(sampler: _Sampler):
    previous = signal.signal(signal.SIGPROF, sampler)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, previous)


def sampled_window(sampler: _Sampler, run_window):
    """``bench_e2e.harness._run_window`` with the timer on around it."""

    def wrapped(*args):
        with _timer_on(sampler):
            return run_window(*args)

    return wrapped


def sampled_setup(sampler: _Sampler, workload, seed: int) -> tuple[int, float]:
    """One repetition's set-up with the timer on; returns the namespace
    rows installed and the CPU seconds it took."""
    from bench_e2e.harness import NAMESPACE, make_generator
    from bench_e2e.workloads import SERVERS
    from repro.experiments.setups import SETUPS
    from repro.workloads.namespace import generate_namespace

    gc.collect()  # as run_repetition does: the last deployment is garbage
    cpu = time.process_time()
    with _timer_on(sampler):
        sampler.phase = "build"
        adapter = SETUPS[workload.setup].build(
            SERVERS, seed=seed, listing_cache=workload.cache_config())
        env = adapter.env
        sampler.phase = "install"
        namespace = generate_namespace(seed=seed, **NAMESPACE)
        adapter.install(namespace)
        sampler.phase = "ready"
        env.run_process(adapter.ready(), until=env.now + 60_000)
        sampler.phase = "clients"
        generator = make_generator(workload, namespace, seed)
        clients = adapter.make_clients(workload.clients_per_server * SERVERS)
        adapter.warm_client_caches(clients, generator)
    return namespace.size(), time.process_time() - cpu


def _label(code, root: str) -> str:
    path = os.path.relpath(code.co_filename, root) if code.co_filename.startswith(root) \
        else os.path.basename(code.co_filename)
    return f"{code.co_qualname}  ({path}:{code.co_firstlineno})"


def _table(title: str, counts: Counter, kept: int, labels, top: int) -> None:
    print(f"\n{'share':>7}  {title}")
    for key, n in sorted(counts.items(), key=lambda item: (-item[1], labels(item[0])))[:top]:
        print(f"{n / kept:7.2%}  {labels(key)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup", action="store_true",
                        help="sample the set-up phases instead of the window")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":  # as bench_e2e/run.py pins it
        os.execve(sys.executable, [sys.executable] + sys.orig_argv[1:],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    tree = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(tree / "src"), str(tree)]

    import bench_e2e.harness as harness
    from bench_e2e.calibration import Spin
    from bench_e2e.layers import layer_of
    from bench_e2e.workloads import WORKLOADS
    from repro.sim.kernel import Environment

    package = os.path.dirname(sys.modules["repro"].__file__)
    layer = functools.cache(lambda code: layer_of(code.co_filename, package))
    workload = WORKLOADS[args.workload]
    if args.setup:
        sampler = _Sampler(sampled_setup.__code__, layer)
        setups = [sampled_setup(sampler, workload, args.seed) for _ in range(REPETITIONS)]
        digests = {"-"}
        cpu_s = sum(cpu for _rows, cpu in setups)
        print(f"workload {args.workload}  seed {args.seed}  {REPETITIONS} set-ups of "
              f"{setups[0][0]} namespace rows  {cpu_s / REPETITIONS * 1e3:.1f} ms CPU each")
    else:
        sampler = _Sampler(Environment.run.__code__, layer)
        harness._run_window = sampled_window(sampler, harness._run_window)
        spin = Spin()
        reps = [harness.run_repetition(workload, args.seed, spin)
                for _ in range(REPETITIONS)]
        digests = {rep["digest"] for rep in reps}
        cpu_s = sum(rep["window_raw_cpu_s"] for rep in reps)
        print(f"workload {args.workload}  seed {args.seed}  {REPETITIONS} windows of "
              f"{reps[0]['window_ms']:g} sim-ms  {reps[0]['completed']} ops  "
              f"{reps[0]['failed']} failed  digest {' '.join(sorted(digests))}")
    kept = sampler.kept
    where = "in set-up" if args.setup else "in Environment.run"
    interval_ms = 1e3 * cpu_s / (kept + sampler.dropped)
    print(f"{kept} samples {where}, {sampler.dropped} outside it dropped; "
          f"timer set to {INTERVAL_S * 1e3:g} ms, one sample per {interval_ms:.2f} ms "
          f"of {'set-up' if args.setup else 'window'} CPU")
    if not kept:
        return 1

    def labels(code):
        return _label(code, str(tree))

    _table("self, by function", sampler.self_counts, kept, labels, TOP)
    _table("inclusive, by function", sampler.inclusive, kept, labels, TOP)
    _table("self, by layer", sampler.self_layers, kept, str, TOP)
    _table("inclusive, by layer", sampler.inclusive_layers, kept, str, TOP)
    if args.setup:
        _table("by phase", sampler.phases, kept, str, TOP)
    return 0 if len(digests) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
