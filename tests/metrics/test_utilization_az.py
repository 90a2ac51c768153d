"""Per-AZ utilization aggregation (Figures 12/13 AZ-skew surface)."""

import pytest

from repro.experiments.setups import SETUPS
from repro.metrics.report import az_skew_note
from repro.metrics.utilization import ResourceReport, add_network_rates
from repro.net.traffic import NodeTraffic, TrafficMatrix


def _delta():
    delta = TrafficMatrix()
    # Two storage nodes in az1 (uneven), one in az2; one server per AZ.
    delta.node["dn1"] = NodeTraffic(sent=4000, received=8000)
    delta.node["dn2"] = NodeTraffic(sent=0, received=4000)
    delta.node["dn3"] = NodeTraffic(sent=2000, received=2000)
    delta.node["nn1"] = NodeTraffic(sent=1000, received=3000)
    # nn2 exists but moved no bytes: absent from the delta on purpose.
    delta.az_pair_bytes[(1, 2)] = 3_000_000
    delta.az_pair_bytes[(1, 1)] = 1_000_000
    return delta


_AZ = {"dn1": 1, "dn2": 1, "dn3": 2, "nn1": 1, "nn2": 2}


def _report(window_ms=2.0):
    report = ResourceReport(window_ms=window_ms)
    add_network_rates(report, _delta(), ["dn1", "dn2", "dn3"], ["nn1", "nn2"], _AZ.__getitem__)
    return report


def test_per_az_rates_are_per_node_averages():
    report = _report()
    per_az = report.per_az
    assert list(per_az) == [1, 2]
    az1, az2 = per_az[1], per_az[2]
    # az1 storage: (8000+4000) recv + 4000 sent over 2 nodes over 2 ms.
    assert az1.storage_net_mb_s == pytest.approx(3.0 + 1.0)
    assert az2.storage_net_mb_s == pytest.approx(1.0 + 1.0)
    assert az1.server_net_mb_s == pytest.approx(1.5 + 0.5)
    # Idle node still counts in the denominator, with zero traffic.
    assert az2.server_net_mb_s == 0.0
    # The whole tiers, from the same pass: 14000 B read, 6000 B written by
    # 3 storage nodes; 3000 B read, 1000 B written by 2 servers.
    assert report.storage_net_read_mb_s == 14000 / 3 / 2.0 / 1000.0
    assert report.storage_net_write_mb_s == 6000 / 3 / 2.0 / 1000.0
    assert report.server_net_read_mb_s == 3000 / 2 / 2.0 / 1000.0
    assert report.server_net_write_mb_s == 1000 / 2 / 2.0 / 1000.0
    assert (report.cross_az_mb, report.intra_az_mb) == (3.0, 1.0)


def test_zero_window_yields_no_rows():
    harness = SETUPS["CephFS"].build(1)
    report = harness.utilization_report(harness.utilization_snapshot())
    assert report == ResourceReport(window_ms=0.0)


def test_az_skew_max_over_mean():
    report = _report()
    # storage rates: az1=4.0, az2=2.0 -> mean 3.0, max 4.0.
    assert report.az_skew("storage") == pytest.approx(4.0 / 3.0)
    # server rates: az1=2.0, az2=0.0 -> mean 1.0, max 2.0.
    assert report.az_skew("server") == pytest.approx(2.0)
    assert ResourceReport().az_skew() == 1.0  # no per-AZ data


def test_az_skew_note_formats_and_skips_empty():
    report = ResourceReport()
    assert az_skew_note("HopsFS-CL (3,3)", report) is None
    report = _report()
    note = az_skew_note("HopsFS-CL (3,3)", report, tier="storage")
    assert note is not None
    assert "az1" in note and "az2" in note and "max/mean 1.33x" in note
