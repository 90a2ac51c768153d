"""Transaction-coordinator selection and read-replica routing.

Implements Section IV-A4/IV-A5 of the paper: nodes are ordered by the
AZ-aware proximity score (same host < same AZ < other AZ) and the TC is
chosen by one of four cases depending on the table options and the hint.

Without AZ awareness (vanilla HopsFS), selection degrades to plain
distribution-aware transactions (DAT): the primary replica of the hinted
partition, or a random node when there is no hint.

Each decision is memoised on the :class:`PartitionMap` as ``(choices,
draw)``, keyed by the caller, the partition (``None`` without a hint),
the table's ``read_backup`` / ``fully_replicated`` flags and ``az_aware``;
liveness changes clear it.  A call returns ``rng.choice(choices)`` if
``draw`` else ``choices[0]``: ``draw`` is set exactly where the rule draws
(a proximity or same-AZ tie of two or more, and the vanilla random picks,
which draw even from one candidate), so a hit consumes the RNG as a miss
does.  Selections that raise :class:`NoDatanodesError` are not memoised.
"""

from __future__ import annotations

import random
from typing import Hashable, Optional

from ..errors import NoDatanodesError
from ..net.topology import Topology
from ..types import NodeAddress
from .partitioning import PartitionMap
from .schema import TableDef

__all__ = ["select_tc", "select_read_replica"]


def _tc_choices(topology: Topology, partition_map: PartitionMap, table: Optional[TableDef],
                partition: Optional[int], caller: NodeAddress, az_aware: bool):
    """``(choices, always_draw)``: a tie of two or more is broken at random
    (proximity ties spread load across equally-near nodes, as the NDB API
    does), and the vanilla no-hint pick draws even from one node."""
    live = partition_map.live_datanodes()
    if not live:
        raise NoDatanodesError("no live NDB datanodes")

    if not az_aware:
        # Vanilla DAT: primary replica of the hinted partition, else random.
        if partition is not None:
            return (partition_map.replicas(partition, table.fully_replicated).primary,), False
        return tuple(live), True

    # AZ-aware policy (the four cases of Section IV-A5).  A replica set
    # holds only live nodes, so a hinted partition always has candidates.
    if partition is not None:
        replicas = partition_map.replicas(partition, table.fully_replicated)
        if table.read_backup:
            # Case 1: read-backup table: the replica local to our AZ,
            # primary or backup.
            return topology.nearest(caller, replicas.all), False
        if table.fully_replicated:
            # Case 2: fully replicated: every node has the data.
            return topology.nearest(caller, live), False
        # Case 3: default: a replica in our AZ if any, else the primary
        # (reads will be rerouted to the primary regardless).
        caller_az = topology.az_of(caller)
        same_az = tuple(n for n in replicas.all if topology.az_of(n) == caller_az)
        return same_az or (replicas.primary,), False
    # Case 4: no hint: all datanodes by proximity score.
    return topology.nearest(caller, live), False


def select_tc(
    topology: Topology,
    partition_map: PartitionMap,
    table: Optional[TableDef],
    hint_partition_key: Optional[Hashable],
    caller: NodeAddress,
    az_aware: bool,
    rng: random.Random,
) -> NodeAddress:
    """Choose the datanode whose TC thread will coordinate a transaction."""
    if table is not None and hint_partition_key is not None:
        partition = partition_map.partition_of(hint_partition_key)
        key = (caller, partition, table.read_backup, table.fully_replicated, az_aware)
    else:
        partition = None
        key = (caller, None, False, False, az_aware)
    routes = partition_map.tc_routes
    try:
        choices, draw = routes[key]
    except KeyError:
        choices, always = _tc_choices(topology, partition_map, table, partition, caller, az_aware)
        entry = choices, always or len(choices) > 1
        choices, draw = routes[key] = partition_map.route_values.setdefault(entry, entry)
    return rng.choice(choices) if draw else choices[0]


def _read_choices(topology: Topology, partition_map: PartitionMap, table: TableDef,
                  partition: int, reader: NodeAddress, az_aware: bool):
    """``(choices, always_draw)`` of ``(node, role)`` pairs."""
    replicas = partition_map.replicas(partition, table.fully_replicated)
    if not (table.read_backup or table.fully_replicated):
        return ((replicas.primary, 0),), False
    nodes = topology.nearest(reader, replicas.all) if az_aware else replicas.all
    return tuple((node, replicas.role_of(node)) for node in nodes), not az_aware


def select_read_replica(
    topology: Topology,
    partition_map: PartitionMap,
    table: TableDef,
    partition: int,
    reader: NodeAddress,
    az_aware: bool,
    rng: random.Random,
) -> tuple[NodeAddress, int]:
    """Route a committed (unlocked) read; returns ``(node, replica_role)``.

    Default NDB routes all committed reads to the primary replica (the
    backups may briefly lag, Section II-B2).  With ``read_backup`` the read
    may be served by any replica, and with AZ awareness we prefer the
    replica closest to the reader — the mechanism behind Figure 14.
    """
    key = (reader, partition, table.read_backup, table.fully_replicated, az_aware)
    routes = partition_map.read_routes
    try:
        choices, draw = routes[key]
    except KeyError:
        choices, always = _read_choices(topology, partition_map, table, partition, reader, az_aware)
        entry = choices, always or len(choices) > 1
        choices, draw = routes[key] = partition_map.route_values.setdefault(entry, entry)
    return rng.choice(choices) if draw else choices[0]
