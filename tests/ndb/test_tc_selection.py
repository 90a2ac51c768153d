"""Unit tests for the 4-case TC selection policy and read routing."""

import random

import pytest

from repro.errors import NoDatanodesError
from repro.ndb import PartitionMap, TableDef, select_read_replica, select_tc
from repro.net import build_us_west1
from repro.types import NodeAddress, NodeKind


@pytest.fixture
def world():
    topo = build_us_west1()
    nodes = []
    for i in range(1, 7):
        addr = NodeAddress(NodeKind.NDB_DATANODE, i)
        topo.add_host(addr, az=((i - 1) // 2) + 1)  # 2 nodes per AZ
        nodes.append(addr)
    pm = PartitionMap(nodes, replication=3, num_partitions=12)
    caller = NodeAddress(NodeKind.NAMENODE, 1)
    topo.add_host(caller, az=2)
    return topo, pm, caller


def test_case1_read_backup_prefers_local_az(world):
    topo, pm, caller = world
    table = TableDef(name="t", read_backup=True)
    rng = random.Random(0)
    for key in range(30):
        tc = select_tc(topo, pm, table, key, caller, az_aware=True, rng=rng)
        replicas = pm.replicas_for_key(key)
        assert tc in replicas.all
        assert topo.az_of(tc) == 2  # R3 over 3 AZs: one replica per AZ


def test_case2_fully_replicated_any_local_node(world):
    topo, pm, caller = world
    table = TableDef(name="fr", fully_replicated=True)
    rng = random.Random(0)
    for key in range(20):
        tc = select_tc(topo, pm, table, key, caller, az_aware=True, rng=rng)
        assert topo.az_of(tc) == 2


def test_case3_default_table_local_replica_or_primary(world):
    topo, pm, caller = world
    table = TableDef(name="plain")
    rng = random.Random(0)
    for key in range(30):
        tc = select_tc(topo, pm, table, key, caller, az_aware=True, rng=rng)
        replicas = pm.replicas_for_key(key)
        local = [n for n in replicas.all if topo.az_of(n) == 2]
        if local:
            assert tc in local
        else:
            assert tc == replicas.primary


def test_case4_no_hint_uses_proximity(world):
    topo, pm, caller = world
    rng = random.Random(0)
    for _ in range(20):
        tc = select_tc(topo, pm, None, None, caller, az_aware=True, rng=rng)
        assert topo.az_of(tc) == 2


def test_vanilla_hint_gives_primary(world):
    topo, pm, caller = world
    table = TableDef(name="t")
    rng = random.Random(0)
    for key in range(20):
        tc = select_tc(topo, pm, table, key, caller, az_aware=False, rng=rng)
        assert tc == pm.replicas_for_key(key).primary


def test_vanilla_no_hint_random_spread(world):
    topo, pm, caller = world
    rng = random.Random(0)
    seen = {select_tc(topo, pm, None, None, caller, az_aware=False, rng=rng) for _ in range(50)}
    assert len(seen) >= 4  # spreads over the cluster, ignores AZs


def test_selection_skips_down_nodes(world):
    topo, pm, caller = world
    table = TableDef(name="t", read_backup=True)
    rng = random.Random(0)
    key = 3
    local = [n for n in pm.replicas_for_key(key).all if topo.az_of(n) == 2]
    for node in local:
        pm.mark_down(node)
    tc = select_tc(topo, pm, table, key, caller, az_aware=True, rng=rng)
    assert pm.is_up(tc)


def test_read_replica_plain_always_primary(world):
    topo, pm, caller = world
    table = TableDef(name="plain")
    rng = random.Random(0)
    node, role = select_read_replica(topo, pm, table, 4, caller, True, rng)
    assert role == 0
    assert node == pm.replicas(4).primary


def test_read_replica_rb_az_local(world):
    topo, pm, caller = world
    table = TableDef(name="t", read_backup=True)
    rng = random.Random(0)
    for partition in range(12):
        node, role = select_read_replica(topo, pm, table, partition, caller, True, rng)
        assert topo.az_of(node) == 2
        assert pm.replicas(partition).role_of(node) == role


def test_read_replica_rb_random_without_awareness(world):
    topo, pm, caller = world
    table = TableDef(name="t", read_backup=True)
    rng = random.Random(0)
    azs = set()
    for _ in range(30):
        node, _role = select_read_replica(topo, pm, table, 4, caller, False, rng)
        azs.add(topo.az_of(node))
    assert len(azs) == 3  # spread over all replicas


def _uncached_nearest(topo, caller, candidates):
    """The best-proximity candidates recomputed from placement, no memo."""

    def rank(node):
        if topo._same_vm_uncached(caller, node):
            return 0
        return 1 if topo.host(caller).az == topo.host(node).az else 2

    best_rank = min(rank(node) for node in candidates)
    return [node for node in candidates if rank(node) == best_rank]


def _pick(best, rng):
    return best[0] if len(best) == 1 else rng.choice(best)


def _reference_tc(topo, pm, table, hint, caller, az_aware, rng):
    """The four-case TC rule as written before the memo, from placement."""
    live = [n for n in pm.datanodes if pm.is_up(n)]
    if not live:
        raise NoDatanodesError("no live NDB datanodes")
    if not az_aware:
        if table is not None and hint is not None:
            return pm._replicas_uncached(pm.partition_of(hint), table.fully_replicated).primary
        return rng.choice(live)
    if table is not None and hint is not None:
        replicas = pm._replicas_uncached(pm.partition_of(hint), table.fully_replicated)
        candidates = [n for n in replicas.all if pm.is_up(n)]
        if table.read_backup and candidates:
            return _pick(_uncached_nearest(topo, caller, candidates), rng)
        if table.fully_replicated:
            return _pick(_uncached_nearest(topo, caller, live), rng)
        if candidates:
            same_az = [n for n in candidates if topo.host(n).az == topo.host(caller).az]
            if same_az:
                return _pick(same_az, rng)
            return replicas.primary
    return _pick(_uncached_nearest(topo, caller, live), rng)


def _reference_read(topo, pm, table, partition, reader, az_aware, rng):
    replicas = pm._replicas_uncached(partition, table.fully_replicated)
    if not (table.read_backup or table.fully_replicated):
        return replicas.primary, 0
    if az_aware:
        chosen = _pick(_uncached_nearest(topo, reader, replicas.all), rng)
    else:
        chosen = rng.choice(replicas.all)
    return chosen, replicas.role_of(chosen)


def _outcome(select, *args):
    try:
        return select(*args)
    except NoDatanodesError:
        return NoDatanodesError


def test_selection_memo_matches_uncached_reference(world):
    """``select_tc`` and ``select_read_replica`` give the uncached rule's
    node and role and leave the RNG in the same state after every call, for
    every caller, table kind, hint, ``az_aware`` and liveness change."""
    topo, pm, caller = world
    colocated = NodeAddress(NodeKind.NAMENODE, 2)
    topo.add_host(colocated, az=1, colocated_with=pm.datanodes[0])
    callers = [caller, colocated, *pm.datanodes]
    tables = [None, TableDef(name="plain"), TableDef(name="rb", read_backup=True),
              TableDef(name="fr", fully_replicated=True)]
    memo_rng, plain_rng = random.Random(11), random.Random(11)

    def check():
        for _pass in range(2):  # the second pass is served from the memo
            for who in callers:
                for az_aware in (True, False):
                    for table in tables:
                        for hint in (None, *range(0, 40, 3)):
                            args = (topo, pm, table, hint, who, az_aware)
                            assert _outcome(select_tc, *args, memo_rng) == (
                                _outcome(_reference_tc, *args, plain_rng))
                            assert memo_rng.getstate() == plain_rng.getstate()
                        if table is None:
                            continue
                        for partition in range(pm.num_partitions):
                            args = (topo, pm, table, partition, who, az_aware)
                            assert _outcome(select_read_replica, *args, memo_rng) == (
                                _outcome(_reference_read, *args, plain_rng))
                            assert memo_rng.getstate() == plain_rng.getstate()

    check()
    pm.mark_down(pm.datanodes[2])  # the AZ-2 caller's local replicas shrink
    check()
    pm.mark_down(pm.datanodes[0])  # group 0 keeps one replica: reads draw from one
    check()
    for node in (pm.datanodes[1], pm.datanodes[3]):
        pm.mark_down(node)
    check()
    pm.mark_down(pm.datanodes[4])  # group 0 is lost; one datanode is left live
    check()
    for node in pm.datanodes:
        pm.mark_up(node)
    check()
    joiner = NodeAddress(NodeKind.NAMENODE, 3)  # an NN joining mid-run
    topo.add_host(joiner, az=3)
    callers.append(joiner)
    check()
