"""Ablations: which AZ-awareness mechanism buys what.

The paper bundles its mechanisms into HopsFS-CL; ``ablation_table``
attributes the win by comparing two 3-AZ, replication-3 deployments with
6 NNs (DESIGN.md §5):

* ``vanilla``: no AZ awareness (HopsFS (3,3));
* ``full CL``: every mechanism on (Read Backup + TC selection + NN
  selection, HopsFS-CL (3,3)),

measured as cross-AZ bytes per completed operation — the currency of
Section III (C2) and Section V-E.
"""

from repro.experiments.runner import RunConfig, run_point
from repro.experiments.setups import SetupSpec
from repro.metrics import Table

from .conftest import run_and_print

_CFG = RunConfig(warmup_ms=10, window_ms=10, clients_per_server=32)


def _cross_az_bytes_per_op(spec_name_or_spec, servers=6):
    point = run_point(spec_name_or_spec, servers, config=_CFG)
    if point.completed == 0:
        return 0.0, point
    total_mb = point.resource.cross_az_mb
    return total_mb * 1e6 / point.completed, point


def ablation_table():
    table = Table(
        title="Ablation - cross-AZ bytes per op, 3-AZ deployments (6 NNs)",
        headers=["configuration", "cross-AZ B/op", "ops/s"],
    )
    vanilla = SetupSpec("vanilla", "hopsfs", 3, (1, 2, 3), az_aware=False)
    full = SetupSpec("full CL", "hopsfs", 3, (1, 2, 3), az_aware=True)
    for spec in (vanilla, full):
        per_op, point = _cross_az_bytes_per_op(spec)
        table.add_row(spec.name, per_op, point.throughput_ops_s)
    return table


def test_az_awareness_ablation(benchmark):
    table = run_and_print(benchmark, ablation_table)
    rows = {r[0]: r[1] for r in table.rows}
    # Full AZ awareness cuts cross-AZ bytes per op by an order of magnitude.
    assert rows["full CL"] < 0.3 * rows["vanilla"]


def replication_sweep():
    """Metadata replication factor sweep (the paper's R=2 vs R=3 axis)."""
    table = Table(
        title="Ablation - NDB replication factor vs mutation throughput (6 NNs)",
        headers=["R", "createFile ops/s"],
    )
    from repro.types import OpType

    for r in (2, 3):
        spec = SetupSpec(f"R{r}", "hopsfs", r, (2,), az_aware=False)
        point = run_point(spec, 6, workload="single", op=OpType.CREATE_FILE, config=_CFG)
        table.add_row(r, point.throughput_ops_s)
    return table


def test_replication_factor_ablation(benchmark):
    table = run_and_print(benchmark, replication_sweep)
    r2, r3 = table.rows[0][1], table.rows[1][1]
    # Longer commit chains cost mutation throughput (Fig. 7's R2->R3 drop).
    assert r3 < r2
