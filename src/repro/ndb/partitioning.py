"""Application-defined partitioning (ADP) and replica placement.

NDB datanodes are organized into node groups of ``replication`` members; a
partition is owned by one node group; each member stores a replica, one of
which is the primary (Section II-B1).  On node failure the surviving
members promote their backup fragments to primary (Section IV-A2).

Fully-replicated tables have a copy on every datanode; their write chain
spans the primary replicas of all node groups (Section IV-A3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

from ..errors import ConfigError, NoDatanodesError
from ..hashing import stable_hash  # re-exported: long-standing import path
from ..types import NodeAddress

__all__ = ["stable_hash", "ReplicaSet", "PartitionMap"]


@dataclass(frozen=True)
class ReplicaSet:
    """Replicas of one partition, primary first."""

    primary: NodeAddress
    backups: tuple[NodeAddress, ...]

    @property
    def chain(self) -> tuple[NodeAddress, ...]:
        """Linear-2PC prepare order: primary, then backups (Fig. 2)."""
        return (self.primary,) + self.backups

    @property
    def all(self) -> tuple[NodeAddress, ...]:
        return self.chain

    def role_of(self, node: NodeAddress) -> Optional[int]:
        """0 for primary, 1.. for backups, None if not a replica."""
        if node == self.primary:
            return 0
        try:
            return self.backups.index(node) + 1
        except ValueError:
            return None


class PartitionMap:
    """Partition → node-group → replica assignment with failure promotion."""

    def __init__(
        self,
        datanodes: Sequence[NodeAddress],
        replication: int,
        num_partitions: int,
    ):
        if replication < 1:
            raise ConfigError("replication must be >= 1")
        if len(datanodes) % replication != 0:
            raise ConfigError("datanode count must be divisible by replication")
        if not datanodes:
            raise ConfigError("need at least one datanode")
        self.datanodes = tuple(datanodes)
        self.replication = replication
        self.num_partitions = num_partitions
        self.num_groups = len(datanodes) // replication
        # Node groups are formed round-robin so that consecutive indices land
        # in different groups — matching the paper's Figures 3/4 where
        # (N1, N3, N5) form one group and (N2, N4, N6) the other.
        self.node_groups: list[tuple[NodeAddress, ...]] = [
            tuple(self.datanodes[g::self.num_groups]) for g in range(self.num_groups)
        ]
        self._down: set[NodeAddress] = set()
        # Memo caches: partition_of is a pure function of the key;
        # replica sets, the live list and the placement decisions of
        # ``tc_selection`` (``tc_routes``, ``read_routes``) only change when
        # the down-set changes.
        self._partition_cache: dict = {}
        self._replica_cache: dict = {}
        self._live_cache: Optional[list[NodeAddress]] = None
        self.tc_routes: dict = {}
        self.read_routes: dict = {}
        # One shared tuple per distinct decision: thousands of route keys
        # map to a few dozen answers.
        self.route_values: dict = {}

    # -- liveness -----------------------------------------------------------
    def mark_down(self, node: NodeAddress) -> None:
        if node not in self.datanodes:
            raise ConfigError(f"{node} is not an NDB datanode")
        self._down.add(node)
        self._liveness_changed()

    def mark_up(self, node: NodeAddress) -> None:
        self._down.discard(node)
        self._liveness_changed()

    def _liveness_changed(self) -> None:
        self._replica_cache.clear()
        self._live_cache = None
        self.tc_routes.clear()
        self.read_routes.clear()
        self.route_values.clear()

    def is_up(self, node: NodeAddress) -> bool:
        return node not in self._down

    def live_datanodes(self) -> list[NodeAddress]:
        """Datanodes not marked down, in cluster order.  Shared: do not mutate."""
        live = self._live_cache
        if live is None:
            live = self._live_cache = [n for n in self.datanodes if n not in self._down]
        return live

    def group_is_viable(self, group_index: int) -> bool:
        """A node group with all members dead loses data: cluster down."""
        return any(n not in self._down for n in self.node_groups[group_index])

    def cluster_viable(self) -> bool:
        return all(self.group_is_viable(g) for g in range(self.num_groups))

    # -- placement ------------------------------------------------------------
    def partition_of(self, partition_key: Hashable) -> int:
        try:
            return self._partition_cache[partition_key]
        except KeyError:
            partition = stable_hash(partition_key) % self.num_partitions
            self._partition_cache[partition_key] = partition
            return partition

    def group_of(self, partition: int) -> int:
        return partition % self.num_groups

    def _ordered_group_members(self, partition: int, group_index: int) -> list[NodeAddress]:
        """Group members in primary-preference order for ``partition``.

        Primaries rotate across group members so load is balanced (NDB
        assigns one primary fragment per partition round-robin).
        """
        group = self.node_groups[group_index]
        offset = (partition // self.num_groups) % len(group)
        return [group[(offset + i) % len(group)] for i in range(len(group))]

    def replicas(self, partition: int, fully_replicated: bool = False) -> ReplicaSet:
        """Current replica set (failure promotions applied), primary first."""
        key = (partition, fully_replicated)
        try:
            return self._replica_cache[key]
        except KeyError:
            pass
        result = self._replicas_uncached(partition, fully_replicated)
        self._replica_cache[key] = result
        return result

    def _replicas_uncached(self, partition: int, fully_replicated: bool) -> ReplicaSet:
        if fully_replicated:
            chain: list[NodeAddress] = []
            for g in range(self.num_groups):
                members = self._ordered_group_members(partition, g)
                chain.extend(m for m in members if m not in self._down)
            if not chain:
                raise NoDatanodesError(f"no live replica for FR partition {partition}")
            return ReplicaSet(primary=chain[0], backups=tuple(chain[1:]))
        group_index = self.group_of(partition)
        members = self._ordered_group_members(partition, group_index)
        live = [m for m in members if m not in self._down]
        if not live:
            raise NoDatanodesError(
                f"node group {group_index} entirely down; partition {partition} lost"
            )
        return ReplicaSet(primary=live[0], backups=tuple(live[1:]))

    def replicas_for_key(self, partition_key: Hashable, fully_replicated: bool = False) -> ReplicaSet:
        return self.replicas(self.partition_of(partition_key), fully_replicated)

    def partitions_on(self, node: NodeAddress) -> list[int]:
        """All partitions for which ``node`` stores a (non-FR) replica."""
        owned = []
        for partition in range(self.num_partitions):
            group = self.node_groups[self.group_of(partition)]
            if node in group:
                owned.append(partition)
        return owned
