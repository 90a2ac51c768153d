"""HopsFS client behaviours: bootstrap, sticking, request accounting."""

import pytest

from repro.errors import NoNamenodeError

from .conftest import make_fs, run


def test_client_bootstrap_via_any_live_nn():
    """The bootstrap NN can differ from the selected one."""
    fs = make_fs(num_namenodes=3, azs=(1, 2, 3), az_aware=True)
    client = fs.client(az=3)

    def scenario():
        yield from fs.await_election()
        yield from client.exists("/")
        return fs.topology.az_of(client.current_nn)

    assert run(fs, scenario()) == 3


def test_client_traffic_accounted():
    fs = make_fs()
    client = fs.client()

    def scenario():
        yield from client.mkdir("/x")
        traffic = fs.network.traffic.node[client.addr]
        return traffic.sent, traffic.received

    sent, received = run(fs, scenario())
    assert sent > 0
    assert received > 0


def _failing_mkdir(max_failovers, kill):
    """mkdir after ``kill(fs, bound_nn)``; the fail-stop client must never
    back off (a fail-over costs no simulated time of its own)."""
    fs = make_fs(num_namenodes=2)
    client = fs.client()
    client.bounds.budget = max_failovers  # read per op, so settable now
    backoff = client.bounds.backoff

    def no_backoff(*args):
        assert not list(backoff(*args)), "a fail-stop client never backs off"
        return ()

    client.bounds.backoff = no_backoff

    def scenario():
        yield from fs.await_election()
        yield from client.exists("/")  # bind to an NN first
        kill(fs, client.current_nn)
        with pytest.raises(NoNamenodeError):
            yield from client.mkdir("/nope")

    run(fs, scenario())
    return client


def test_failover_cap_respected():
    # Every NN down: the fail-over finds none, bootstrap exhaustion ends it.
    def kill_all(fs, _bound):
        for nn in fs.namenodes:
            nn.shutdown()

    client = _failing_mkdir(1, kill_all)
    assert (client.failovers, client.bootstrap_exhaustions) == (2, 1)
    assert client.last_op_failures == 1


def test_failover_budget_ends_the_op_before_discovery():
    # A live peer exists, but a budget of zero fail-overs gives up first.
    def kill_bound(fs, bound):
        next(nn for nn in fs.namenodes if nn.addr == bound).shutdown()

    client = _failing_mkdir(0, kill_bound)
    assert (client.failovers, client.bootstrap_exhaustions) == (1, 0)
    assert client.last_op_failures == 1 and client.current_nn is None


def test_two_clients_interleave_without_interference():
    fs = make_fs()
    c1, c2 = fs.client(), fs.client()

    def worker(client, prefix, n):
        for i in range(n):
            yield from client.create(f"/{prefix}-{i}")

    def scenario():
        p1 = fs.env.process(worker(c1, "a", 5))
        p2 = fs.env.process(worker(c2, "b", 5))
        yield p1
        yield p2
        names = yield from c1.listdir("/")
        return names

    names = run(fs, scenario())
    assert names == sorted([f"a-{i}" for i in range(5)] + [f"b-{i}" for i in range(5)])


def test_ops_served_spread_when_clients_pick_differently():
    fs = make_fs(num_namenodes=3, azs=(1, 2, 3), az_aware=True)
    clients = [fs.client(az=az) for az in (1, 2, 3)]

    def scenario():
        yield from fs.await_election()
        for i, c in enumerate(clients):
            yield from c.create(f"/f{i}")
        return [nn.ops_served for nn in fs.namenodes]

    served = run(fs, scenario())
    # one AZ-local NN per client -> every NN served exactly one op
    assert served == [1, 1, 1]
