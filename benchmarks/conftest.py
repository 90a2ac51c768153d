"""Shared helpers for the figure/table benchmarks.

Each benchmark regenerates one table or figure of the paper, prints the
series and asserts the paper's qualitative claims on it.  The committed
copies under ``benchmarks/results/<test name>.txt`` are pins
(``benchmarks/pins.py``, one per test, produced by the function the test
runs): ``python3 benchmarks/repin.py --check test_fig5`` compares,
``python3 benchmarks/repin.py test_fig5`` rewrites — running a benchmark
writes nothing.  Figures 5, 6, 8, 10-13 share one cached Spotify sweep (as
in the paper's methodology), so the first of them pays the simulation cost
and the rest reuse it.

Scale knobs:
  REPRO_BENCH_FULL=1   -> the paper's full 1..60 metadata-server grid
  REPRO_BENCH_SCALE=x  -> multiply measurement windows
"""


def run_and_print(benchmark, fn):
    """Run ``fn`` once under pytest-benchmark and print its table."""
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    print()
    print(result.render())
    return result
