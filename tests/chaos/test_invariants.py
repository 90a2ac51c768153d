"""The invariant catalogue: green on health, red on planted corruption."""

from types import SimpleNamespace

import pytest

from repro.chaos import run_scenario, verify_target
from repro.chaos.invariants import (
    block_az_coverage,
    deadline_compliance,
    namespace_integrity,
    no_stuck_state,
    replica_consistency,
)
from repro.experiments.setups import CHAOS, SETUPS
from repro.hopsfs.metadata import InodeRow
from repro.hopsfs.robust import RobustConfig
from repro.ndb.cluster import NdbCluster
from repro.ndb.datanode import _TcTxn
from repro.ndb.store import FragmentStore
from repro.workloads import generate_namespace


@pytest.fixture(scope="module")
def ready_target():
    """One settled HopsFS-CL target shared by the whole module.

    Each test plants its own corruption and must undo it before returning.
    """
    target = SETUPS["HopsFS-CL (3,3)"].build(2, seed=11, tuning=CHAOS)
    namespace = generate_namespace(num_top_dirs=1, dirs_per_top=3, files_per_dir=3, seed=11)
    target.install(namespace)

    def settle():
        yield from target.ready()
        yield from target.seed_blocks(2)

    target.env.run_process(settle(), until=60_000)
    return target


def test_catalogue_green_on_healthy_cluster(ready_target):
    verdicts = verify_target(ready_target)
    assert [v.name for v in verdicts] == [
        "replica-consistency",
        "namespace-integrity",
        "no-stuck-state",
        "block-durability",
        "block-az-coverage",
        "exactly-once",
        "durability-horizon",
        "drained-ack-integrity",
        "membership-convergence",
        "listing-consistency",
        "installed-rows-survive",
        "deadline-compliance",
    ]
    assert all(v.ok for v in verdicts), [str(v) for v in verdicts]


def test_orphan_inode_fails_namespace_integrity(ready_target):
    fs = ready_target.deployment
    dn = next(d for d in fs.ndb.datanodes.values() if d.running)
    ghost = InodeRow(id=987654, parent_id=999999, name="ghost", is_dir=False)
    dn.store.load("inodes", ghost.pk, ghost.parent_id, ghost)
    try:
        verdict = namespace_integrity(fs)
        assert not verdict.ok
        assert "987654" in verdict.detail
    finally:
        from repro.ndb.schema import TOMBSTONE

        dn.store.load("inodes", ghost.pk, ghost.parent_id, TOMBSTONE)
    assert namespace_integrity(fs).ok


def test_diverging_replica_fails_replica_consistency(ready_target):
    fs = ready_target.deployment
    group = fs.ndb.partition_map.node_groups[0]
    lone = fs.ndb.datanodes[group[0]]
    row = InodeRow(id=13131, parent_id=1, name="split-brain", is_dir=False)
    lone.store.load("inodes", row.pk, row.parent_id, row)
    try:
        verdict = replica_consistency(fs)
        assert not verdict.ok
        # The detail names the key and the member that lacks the row.
        assert f"(1 keys differ: {group[1]} lacks {row.pk!r})" in verdict.detail
        assert verdict.detail.startswith(f"inodes: {lone.addr} vs {group[1]}")
        lone.store.load("inodes", row.pk, row.parent_id, row.with_(size=1))
        for other in group[1:]:
            fs.ndb.datanodes[other].store.load("inodes", row.pk, row.parent_id, row)
        assert f"{group[1]} holds another {row.pk!r}" in replica_consistency(fs).detail
    finally:
        from repro.ndb.schema import TOMBSTONE

        for addr in group:
            fs.ndb.datanodes[addr].store.load("inodes", row.pk, row.parent_id, TOMBSTONE)
    assert replica_consistency(fs).ok


def test_stale_prepared_row_fails_no_stuck_state(ready_target):
    fs = ready_target.deployment
    dn = next(d for d in fs.ndb.datanodes.values() if d.running)
    dn.store.prepare(424242, "inodes", (1, "zombie"), 1, "v")
    try:
        verdict = no_stuck_state(fs)
        assert not verdict.ok
        assert "stale prepared" in verdict.detail
    finally:
        dn.store.abort_all(424242)
    assert no_stuck_state(fs).ok


def test_live_transaction_state_is_not_stuck(ready_target):
    """In-flight 2PC state (e.g. election commits) must not trip the check."""
    fs = ready_target.deployment
    dn = next(d for d in fs.ndb.datanodes.values() if d.running)
    txid = 535353
    dn.store.prepare(txid, "inodes", (1, "in-flight"), 1, "v")
    dn.txns[txid] = _TcTxn(txid=txid, client_az=dn.az)
    dn.txns[txid].last_active_ms = fs.env.now
    try:
        assert no_stuck_state(fs).ok
    finally:
        dn.store.abort_all(txid)
        del dn.txns[txid]


def test_single_az_block_fails_az_coverage(ready_target):
    fs = ready_target.deployment
    bdn = fs.block_datanodes[0]
    bdn.blocks[71717171] = 1024  # a block nobody else replicates
    try:
        verdict = block_az_coverage(fs)
        assert not verdict.ok
        assert "71717171" in verdict.detail
    finally:
        del bdn.blocks[71717171]
    assert block_az_coverage(fs).ok


@pytest.mark.parametrize("setup", ["HopsFS-CL (3,3)", "CephFS"])
def test_deadline_compliance_is_not_applicable_without_robust_clients(setup):
    target = SETUPS[setup].build(2, seed=11, tuning=CHAOS)
    target.make_clients(3)
    verdict = deadline_compliance(target)
    assert verdict.ok and verdict.detail == "n/a (no robust clients)"


def test_deadline_compliance_audits_robust_clients_only():
    target = SETUPS["HopsFS-CL (3,3)"].build(2, seed=11, tuning=CHAOS, robust=RobustConfig())
    clients = target.make_clients(3)
    assert str(deadline_compliance(target)) == "[PASS] deadline-compliance: 3 clients audited"
    clients[0].deadline_overruns.append(("mkdir", 100.0, 180.0))
    verdict = deadline_compliance(target)
    assert not verdict.ok and "80.0ms past its deadline" in verdict.detail


def test_an_empty_restart_fails_installed_rows_survive(monkeypatch):
    """A datanode with no running member of its node group to copy from
    restores the fragments it held.  Restored empty instead, an AZ outage
    on a one-AZ setup loses every installed row; only this invariant sees
    it (the workload deletes and renames only what it created)."""
    donor = NdbCluster._donor

    def empty_when_alone(cluster, addr):
        found = donor(cluster, addr)
        return found if found is not None else SimpleNamespace(store=FragmentStore())

    monkeypatch.setattr(NdbCluster, "_donor", empty_when_alone)
    result = run_scenario("az-outage-under-load", setup="hopsfs-2-1")
    verdict = next(v for v in result.verdicts if v.name == "installed-rows-survive")
    assert not verdict.ok
    assert "installed paths missing: /" in verdict.detail
