"""Transaction-coordinator selection and read-replica routing.

Implements Section IV-A4/IV-A5 of the paper: nodes are ordered by the
AZ-aware proximity score (same host < same AZ < other AZ) and the TC is
chosen by one of four cases depending on the table options and the hint.

Without AZ awareness (vanilla HopsFS), selection degrades to plain
distribution-aware transactions (DAT): the primary replica of the hinted
partition, or a random node when there is no hint.
"""

from __future__ import annotations

import random
from typing import Hashable, Optional, Sequence

from ..errors import NoDatanodesError
from ..net.topology import Topology
from ..types import NodeAddress
from .partitioning import PartitionMap
from .schema import TableDef

__all__ = ["select_tc", "select_read_replica"]


def _best_by_proximity(
    topology: Topology,
    caller: NodeAddress,
    candidates: Sequence[NodeAddress],
    rng: random.Random,
) -> NodeAddress:
    """Pick the candidate with the best (lowest) proximity rank.

    Ties are broken uniformly at random to spread load across equally-near
    nodes, as the NDB API does.
    """
    if not candidates:
        raise ValueError("no candidates")
    best = topology.nearest(caller, candidates)
    return best[0] if len(best) == 1 else rng.choice(best)


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
    live = partition_map.live_datanodes()
    if not live:
        raise NoDatanodesError("no live NDB datanodes")

    if not az_aware:
        # Vanilla DAT: primary replica of the hinted partition, else random.
        if table is not None and hint_partition_key is not None:
            replicas = partition_map.replicas_for_key(
                hint_partition_key, table.fully_replicated
            )
            return replicas.primary
        return rng.choice(live)

    # AZ-aware policy (the four cases of Section IV-A5).
    if table is not None and hint_partition_key is not None:
        replicas = partition_map.replicas_for_key(hint_partition_key, table.fully_replicated)
        candidates = [n for n in replicas.all if partition_map.is_up(n)]
        if table.read_backup and candidates:
            # Case 1: read-backup table: the replica local to our AZ,
            # primary or backup.
            return _best_by_proximity(topology, caller, candidates, rng)
        if table.fully_replicated:
            # Case 2: fully replicated: every node has the data.
            return _best_by_proximity(topology, caller, live, rng)
        if candidates:
            # Case 3: default: a replica in our AZ if any, else the primary
            # (reads will be rerouted to the primary regardless).
            same_az = [
                n
                for n in candidates
                if topology.az_of(n) == topology.az_of(caller)
            ]
            if same_az:
                return same_az[0] if len(same_az) == 1 else rng.choice(same_az)
            return replicas.primary
    # Case 4: no nodes found for the hint (or no hint): all datanodes by
    # proximity score.
    return _best_by_proximity(topology, caller, live, rng)


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
    replicas = partition_map.replicas(partition, table.fully_replicated)
    if not (table.read_backup or table.fully_replicated):
        return replicas.primary, 0
    candidates = replicas.all
    if az_aware:
        chosen = _best_by_proximity(topology, reader, candidates, rng)
    else:
        chosen = rng.choice(candidates)
    role = replicas.role_of(chosen)
    assert role is not None
    return chosen, role
