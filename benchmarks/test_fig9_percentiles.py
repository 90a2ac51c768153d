"""Figure 9: latency percentiles at 50% load."""

import os

from repro.experiments import figures

from .conftest import run_and_print


def fig9_table():
    servers = 60 if os.environ.get("REPRO_BENCH_FULL") else 24
    return figures.fig9(num_servers=servers)


def test_fig9(benchmark):
    table = run_and_print(benchmark, fig9_table)
    rows = {(r[0], r[1]): r[2:] for r in table.rows}
    # Percentiles are ordered and unloaded reads are in the ms range.
    for (setup, op), (p50, p90, p99) in rows.items():
        if p50 or p90 or p99:
            assert p50 <= p90 <= p99
    read = rows[("HopsFS-CL (3,3)", "readFile")]
    if read[0]:
        assert read[0] < 30.0
