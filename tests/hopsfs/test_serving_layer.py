"""Metadata serving layer: leader election, NN selection, NN failover."""

import pytest

from repro.errors import FsError, NoNamenodeError
from repro.hopsfs import Namenode
from repro.types import OpType

from .conftest import make_fs, run


def test_leader_election_converges():
    fs = make_fs(num_namenodes=4)

    def scenario():
        yield from fs.await_election()
        return [nn.election.leader_id for nn in fs.namenodes]

    leaders = run(fs, scenario())
    assert len(set(leaders)) == 1
    assert leaders[0] == 1  # smallest NN id wins


def test_election_reports_az_ids():
    fs = make_fs(num_namenodes=4, azs=(1, 2, 3), az_aware=True)

    def scenario():
        yield from fs.await_election()
        return fs.namenodes[0].election.active

    active = run(fs, scenario())
    assert len(active) == 4
    azs = {nn_id: az for nn_id, _addr, az in active}
    assert azs == {1: 1, 2: 2, 3: 3, 4: 1}


def test_new_leader_after_leader_death():
    fs = make_fs(num_namenodes=3, election_period_ms=20.0)

    def scenario():
        yield from fs.await_election()
        leader = fs.leader_namenode()
        assert leader is fs.namenodes[0]
        leader.shutdown()
        # Wait for the failed leader's rows to age out (missed rounds = 2).
        yield fs.env.timeout(200)
        return [nn.election.leader_id for nn in fs.namenodes if nn.running]

    leaders = run(fs, scenario())
    assert set(leaders) == {2}


def test_client_prefers_az_local_nn_when_aware():
    fs = make_fs(num_namenodes=6, azs=(1, 2, 3), az_aware=True)
    client = fs.client(az=2)

    def scenario():
        yield from fs.await_election()
        yield from client.mkdir("/x")
        return client.current_nn

    nn = run(fs, scenario())
    assert fs.topology.az_of(nn) == 2


def test_client_random_nn_without_awareness():
    fs = make_fs(num_namenodes=6, azs=(1, 2, 3), az_aware=False)

    def scenario():
        yield from fs.await_election()
        seen = set()
        for i in range(12):
            client = fs.client(az=2)
            yield from client.exists("/")
            seen.add(fs.topology.az_of(client.current_nn))
        return seen

    seen = run(fs, scenario())
    assert len(seen) > 1  # selection ignores the client's AZ


def test_client_sticks_to_one_nn():
    fs = make_fs(num_namenodes=4)
    client = fs.client()

    def scenario():
        yield from fs.await_election()
        yield from client.mkdir("/a")
        first = client.current_nn
        for i in range(5):
            yield from client.exists("/a")
        return first, client.current_nn

    first, last = run(fs, scenario())
    assert first == last


def test_client_fails_over_on_nn_death():
    fs = make_fs(num_namenodes=3, election_period_ms=20.0)
    client = fs.client()

    def scenario():
        yield from fs.await_election()
        yield from client.mkdir("/a")
        victim = client.current_nn
        for nn in fs.namenodes:
            if nn.addr == victim:
                nn.shutdown()
        yield from client.mkdir("/b")  # must fail over transparently
        assert client.current_nn != victim
        names = yield from client.listdir("/")
        return names

    assert run(fs, scenario()) == ["a", "b"]


def test_all_nns_dead_raises():
    fs = make_fs(num_namenodes=2)
    client = fs.client()

    def scenario():
        yield from fs.await_election()
        for nn in fs.namenodes:
            nn.shutdown()
        with pytest.raises(NoNamenodeError):
            yield from client.exists("/")
        return True

    assert run(fs, scenario())


def test_cluster_tolerates_n_minus_1_nn_failures():
    """Section IV-B2: N-1 of N stateless metadata servers may fail."""
    fs = make_fs(num_namenodes=4, election_period_ms=20.0)
    client = fs.client()

    def scenario():
        yield from fs.await_election()
        for nn in fs.namenodes[:-1]:
            nn.shutdown()
        yield fs.env.timeout(100)
        yield from client.create("/survivor-file")
        ok = yield from client.exists("/survivor-file")
        return ok

    assert run(fs, scenario()) is True


def test_unsupported_op_rejected(fs, client, monkeypatch):
    def scenario():
        with pytest.raises(Exception):
            yield from client.op(OpType.ADD_BLOCK, path="/nope", client="x")
        # An op the NN has no handler for is answered with FsError and
        # counted like every other failure exit.
        failed_before = sum(nn.ops_failed for nn in fs.namenodes)
        monkeypatch.setattr(
            Namenode, "_OPS",
            {op: fn for op, fn in Namenode._OPS.items() if op is not OpType.STAT},
        )
        with pytest.raises(FsError, match="unsupported operation"):
            yield from client.stat("/")
        return sum(nn.ops_failed for nn in fs.namenodes) - failed_before

    assert run(fs, scenario()) == 1


def test_nn_counts_served_ops(fs, client):
    def scenario():
        yield from client.mkdir("/m")
        yield from client.exists("/m")
        return sum(nn.ops_served for nn in fs.namenodes)

    assert run(fs, scenario()) == 2
