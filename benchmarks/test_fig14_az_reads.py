"""Figure 14: AZ-local reads with the Read Backup table option."""

from repro.experiments import figures

from .conftest import run_and_print


def fig14_table():
    return figures.fig14(num_partitions_shown=12)


def test_fig14(benchmark):
    table = run_and_print(benchmark, fig14_table)
    enabled = [r for r in table.rows if r[0] == "ReadBackup Enabled"]
    disabled = [r for r in table.rows if r[0] == "ReadBackup Disabled"]
    assert enabled and disabled
    # Disabled: every read goes to the primary replica.
    for row in disabled:
        assert row[2] == 100.0
    # Enabled: backups serve a substantial share of reads (AZ-local reads).
    backup_share = sum(r[3] + r[4] for r in enabled) / len(enabled)
    assert backup_share > 30.0
