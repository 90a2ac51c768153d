"""FaultSchedule / FaultEvent: validation, ordering, round-trips."""

import pytest

from repro.chaos import ACTIONS, FaultEvent, FaultSchedule, parse_node
from repro.errors import ReproError
from repro.types import NodeAddress, NodeKind


# ------------------------------------------------------------------ parse_node
def test_parse_node_kinds():
    assert parse_node("ndbd3") == NodeAddress(NodeKind.NDB_DATANODE, 3)
    assert parse_node("nn2") == NodeAddress(NodeKind.NAMENODE, 2)
    assert parse_node("mds1") == NodeAddress(NodeKind.MDS, 1)
    assert parse_node("osd12") == NodeAddress(NodeKind.OSD, 12)
    assert parse_node("dn4") == NodeAddress(NodeKind.DATANODE, 4)


def test_parse_node_prefers_longest_prefix():
    # "ndb_mgmd1" must not parse as NDB_DATANODE ("ndbd") or similar.
    assert parse_node("ndb_mgmd1") == NodeAddress(NodeKind.NDB_MGMT, 1)


@pytest.mark.parametrize("bad", ["", "ndbd", "7", "ndbd1x", "what3ver"])
def test_parse_node_rejects_garbage(bad):
    with pytest.raises(ReproError):
        parse_node(bad)


# ------------------------------------------------------------------ validation
def test_unknown_action_rejected():
    with pytest.raises(ReproError):
        FaultEvent(0.0, "set_on_fire").validate()


def test_negative_time_rejected():
    with pytest.raises(ReproError):
        FaultEvent(-1.0, "heal").validate()


@pytest.mark.parametrize("action", ["crash_node", "recover_node"])
def test_node_actions_need_a_parseable_node(action):
    with pytest.raises(ReproError):
        FaultEvent(0.0, action).validate()
    with pytest.raises(ReproError):
        FaultEvent(0.0, action, node="bogus").validate()
    FaultEvent(0.0, action, node="ndbd1").validate()


def test_az_actions_need_az():
    with pytest.raises(ReproError):
        FaultEvent(0.0, "az_outage").validate()
    FaultEvent(0.0, "az_outage", az=2).validate()


def test_partition_groups_must_be_disjoint_and_nonempty():
    with pytest.raises(ReproError):
        FaultEvent(0.0, "partition", groups=((1,), (1, 2))).validate()
    with pytest.raises(ReproError):
        FaultEvent(0.0, "partition", groups=((), (2,))).validate()
    FaultEvent(0.0, "partition", groups=((1,), (2, 3))).validate()


def test_degrade_link_needs_positive_extra():
    with pytest.raises(ReproError):
        FaultEvent(0.0, "degrade_link", az_pair=(1, 2)).validate()
    FaultEvent(0.0, "degrade_link", az_pair=(1, 2), extra_ms=3.0).validate()


def test_builders_cover_every_action():
    schedule = (
        FaultSchedule()
        .crash_node(1, "ndbd1")
        .recover_node(2, "ndbd1")
        .az_outage(3, 1)
        .az_heal(4, 1)
        .partition(5, (1,), (2, 3))
        .heal(6)
        .degrade_link(7, 1, 3, extra_ms=2.0)
        .restore_links(8)
        .recover_all(9)
        .add_namenode(10, az=2)
        .decommission_namenode(11, "nn1")
        .preempt_namenode(12, "nn2", warning_ms=5.0)
    )
    assert {e.action for e in schedule} == ACTIONS


# -------------------------------------------------------------------- ordering
def test_events_sorted_by_time_insertion_order_breaks_ties():
    schedule = (
        FaultSchedule()
        .heal(50)
        .crash_node(10, "ndbd2")
        .recover_all(50)  # same instant as heal: must stay after it
        .az_outage(20, 3)
    )
    assert [(e.at_ms, e.action) for e in schedule.events] == [
        (10, "crash_node"),
        (20, "az_outage"),
        (50, "heal"),
        (50, "recover_all"),
    ]
    assert schedule.end_ms() == 50
    assert len(schedule) == 4


# ----------------------------------------------------------------- round trips
def test_dict_round_trip_preserves_schedule():
    schedule = (
        FaultSchedule()
        .az_outage(60, 3)
        .partition(80, (3,), (1, 2))
        .degrade_link(90, 1, 2, extra_ms=5.0)
        .az_heal(220, 3)
        .heal(260)
    )
    back = FaultSchedule.from_dicts(schedule.to_dicts())
    assert back.events == schedule.events
    assert back.fingerprint() == schedule.fingerprint()


def test_from_dicts_validates():
    with pytest.raises(ReproError):
        FaultSchedule.from_dicts([{"at_ms": 0, "action": "nope"}])


def test_fingerprint_sensitive_to_content():
    a = FaultSchedule().az_outage(60, 3)
    b = FaultSchedule().az_outage(60, 2)
    c = FaultSchedule().az_outage(61, 3)
    assert a.fingerprint() == FaultSchedule().az_outage(60, 3).fingerprint()
    assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3


def test_describe_is_human_readable():
    assert "ndbd5" in FaultEvent(0, "crash_node", node="ndbd5").describe()
    assert "az3" in FaultEvent(0, "az_outage", az=3).describe()
    assert "+5.0ms" in FaultEvent(0, "degrade_link", az_pair=(1, 2), extra_ms=5.0).describe()


# ------------------------------------------------- what a scenario needs, as data
def _never_build(monkeypatch):
    from repro.experiments.setups import SetupSpec

    def build(self, *args, **kwargs):
        raise AssertionError(f"{self.name} was built before the scenario was checked")

    monkeypatch.setattr(SetupSpec, "build", build)


@pytest.mark.parametrize("scenario,setup,reason", [
    ("network-partition", "hopsfs-2-1", "spans one AZ; network-partition needs 2"),
    ("slow-az", "hopsfs-3-1", "spans one AZ"),
    ("nn-churn", "cephfs", "HopsFS-only"),
    ("spot-preemption-storm", "cephfs-dirpinned", "HopsFS-only"),
])
def test_unsupported_cell_is_refused_before_anything_is_built(
        scenario, setup, reason, monkeypatch):
    from repro.chaos import run_scenario
    from repro.errors import UnsupportedError

    _never_build(monkeypatch)
    with pytest.raises(UnsupportedError, match=reason):
        run_scenario(scenario, setup=setup)


def test_every_scenario_states_its_needs_and_the_matrix_follows():
    from repro.chaos import SCENARIOS
    from repro.experiments.setups import SETUPS

    needs_two_azs = {"network-partition", "degraded-link", "gray-degraded-link", "slow-az"}
    elastic = {"nn-churn", "spot-preemption-storm"}
    for name, scenario in SCENARIOS.items():
        assert scenario.min_azs == (2 if name in needs_two_azs else 1), name
        assert scenario.stack == ("hopsfs" if name in elastic else None), name
        assert (scenario.stack is not None) == (scenario.elastic is not None), name
    refused = {(name, spec.name) for name, s in SCENARIOS.items()
               for spec in SETUPS.values() if s.unsupported_on(spec) is not None}
    one_az = [spec.name for spec in SETUPS.values() if len(spec.azs) == 1]
    ceph = [spec.name for spec in SETUPS.values() if spec.kind != "hopsfs"]
    assert refused == ({(n, s) for n in needs_two_azs for s in one_az}
                       | {(n, s) for n in elastic for s in ceph})


def test_scale_shard_and_monitor_inherit_the_check(monkeypatch, capsys):
    from dataclasses import asdict

    from repro.cli import main
    from repro.errors import UnsupportedError
    from repro.experiments.scale import ScaleConfig, run_shard

    _never_build(monkeypatch)
    config = ScaleConfig(setup="CephFS", shards=1, scenario="nn-churn")
    with pytest.raises(UnsupportedError, match="HopsFS-only"):
        run_shard({"config": asdict(config), "shard_id": 0})
    assert main(["monitor", "nn-churn", "--setup", "cephfs"]) == 2
    assert capsys.readouterr().err.startswith("unsupported: ")
