"""Read-routing tests: Read Backup / AZ-local reads (the Fig. 14 mechanism)."""

from repro.ndb import LockMode

from .conftest import build_harness


def _populate(harness, n=30):
    def loader():
        txn = harness.api.transaction()
        for i in range(n):
            yield from txn.write("t", f"k{i}", i)
            yield from txn.write("plain", f"k{i}", i)
        yield from txn.commit()

    harness.run(loader())


def _read_all(harness, table, n=30, repeat=3):
    def reader():
        for _ in range(repeat):
            for i in range(n):
                txn = harness.api.transaction(hint_table=table, hint_key=f"k{i}")
                yield from txn.read(table, f"k{i}")
                yield from txn.commit()

    harness.run(reader())


def test_plain_table_reads_all_go_to_primary():
    harness = build_harness()
    _populate(harness)
    before = harness.cluster.read_stats.total_reads()
    _read_all(harness, "plain")
    stats = harness.cluster.read_stats
    primary = sum(c for (t, p, role), c in stats.by_replica.items() if t == "plain" and role == 0)
    backup = sum(c for (t, p, role), c in stats.by_replica.items() if t == "plain" and role > 0)
    assert primary > 0
    assert backup == 0
    assert stats.total_reads() > before


def test_read_backup_reads_hit_backups_too():
    harness = build_harness(num_datanodes=6, replication=3, azs=(1, 2, 3))
    _populate(harness)
    _read_all(harness, "t")
    stats = harness.cluster.read_stats
    backup = sum(c for (t, p, role), c in stats.by_replica.items() if t == "t" and role > 0)
    assert backup > 0


def test_read_backup_reads_are_az_local_when_aware():
    """R=3 over 3 AZs: every read can be served in the client's AZ."""
    harness = build_harness(num_datanodes=6, replication=3, azs=(1, 2, 3), client_az=2)
    _populate(harness)
    stats = harness.cluster.read_stats
    base_local, base_remote = stats.az_local_reads, stats.az_remote_reads
    _read_all(harness, "t")
    assert stats.az_remote_reads == base_remote  # zero new cross-AZ reads
    assert stats.az_local_reads > base_local


def test_no_az_awareness_reads_cross_azs():
    harness = build_harness(
        num_datanodes=6, replication=3, azs=(1, 2, 3), client_az=2, az_aware=False
    )
    _populate(harness)
    stats = harness.cluster.read_stats
    base_remote = stats.az_remote_reads
    _read_all(harness, "t")
    assert stats.az_remote_reads > base_remote


def test_locked_reads_always_primary():
    harness = build_harness(num_datanodes=6, replication=3, azs=(1, 2, 3))
    _populate(harness)

    def reader():
        for i in range(20):
            txn = harness.api.transaction(hint_table="t", hint_key=f"k{i}")
            yield from txn.read("t", f"k{i}", lock=LockMode.SHARED)
            yield from txn.commit()

    before = {
        role: sum(c for (t, p, r), c in harness.cluster.read_stats.by_replica.items() if t == "t" and r == role)
        for role in (0, 1, 2)
    }
    harness.run(reader())
    after = {
        role: sum(c for (t, p, r), c in harness.cluster.read_stats.by_replica.items() if t == "t" and r == role)
        for role in (0, 1, 2)
    }
    assert after[0] - before[0] == 20
    assert after[1] == before[1]
    assert after[2] == before[2]


def test_cross_az_traffic_lower_with_read_backup():
    """The Section V-E claim: Read Backup reduces cross-AZ network traffic."""

    def run_workload(read_backup):
        harness = build_harness(
            num_datanodes=6,
            replication=3,
            azs=(1, 2, 3),
            client_az=2,
            read_backup=read_backup,
        )
        _populate(harness, n=20)
        snap = harness.network.traffic
        _read_all(harness, "t", n=20, repeat=5)
        delta = harness.network.traffic.delta_since(snap)
        return delta.cross_az_bytes

    assert run_workload(True) < run_workload(False)
