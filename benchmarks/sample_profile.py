#!/usr/bin/env python3
"""Where the host time of a benchmark window goes, by stack sampling.

    python3 benchmarks/sample_profile.py --workload W --seed S

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
"""

from __future__ import annotations

import argparse
import functools
import os
import signal
import sys
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


def sampled_window(sampler: _Sampler, run_window):
    """``bench_e2e.harness._run_window`` with the timer on around it."""

    def wrapped(*args):
        previous = signal.signal(signal.SIGPROF, sampler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            return run_window(*args)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    return wrapped


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
    sampler = _Sampler(Environment.run.__code__, layer)
    harness._run_window = sampled_window(sampler, harness._run_window)
    spin = Spin()
    reps = [harness.run_repetition(WORKLOADS[args.workload], args.seed, spin)
            for _ in range(REPETITIONS)]
    digests = {rep["digest"] for rep in reps}
    kept = sampler.kept
    print(f"workload {args.workload}  seed {args.seed}  {REPETITIONS} windows of "
          f"{reps[0]['window_ms']:g} sim-ms  {reps[0]['completed']} ops  "
          f"{reps[0]['failed']} failed  digest {' '.join(sorted(digests))}")
    window_cpu_s = sum(rep["window_raw_cpu_s"] for rep in reps)
    interval_ms = 1e3 * window_cpu_s / (kept + sampler.dropped)
    print(f"{kept} samples in Environment.run, {sampler.dropped} outside it dropped; "
          f"timer set to {INTERVAL_S * 1e3:g} ms, one sample per {interval_ms:.2f} ms "
          f"of window CPU")
    if not kept:
        return 1

    def labels(code):
        return _label(code, str(tree))

    _table("self, by function", sampler.self_counts, kept, labels, TOP)
    _table("inclusive, by function", sampler.inclusive, kept, labels, TOP)
    _table("self, by layer", sampler.self_layers, kept, str, TOP)
    _table("inclusive, by layer", sampler.inclusive_layers, kept, str, TOP)
    return 0 if len(digests) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
