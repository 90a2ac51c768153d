"""NDB cluster assembly: datanodes, management nodes, placement and failures.

Deployment layouts follow Figures 3 and 4 of the paper: replica *blocks*
are assigned AZ by AZ so that the members of every node group land in
different AZs (N1/N3/N5 one group, N2/N4/N6 another), management nodes run
one per AZ, and the first management node acts as arbitrator.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Optional, Sequence

from ..errors import ConfigError
from ..net.network import Network
from ..sim import Environment, RngRegistry
from ..types import AzId, NodeAddress, NodeKind
from .changelog import ChangelogBus
from .client import NdbApi
from .config import NdbConfig
from .datanode import NdbDatanode
from .failure import HeartbeatProtocol
from .management import ManagementNode
from .partitioning import PartitionMap
from .schema import TOMBSTONE, Schema
from .store import ReadStats

__all__ = ["NdbCluster", "az_assignment_for"]


def az_assignment_for(num_datanodes: int, replication: int, azs: Sequence[AzId]) -> list[AzId]:
    """AZ per datanode such that node-group members span different AZs.

    Node groups are formed round-robin (``datanodes[g::num_groups]``), so
    assigning whole replica blocks to AZs guarantees each group has at most
    one member per AZ when ``len(azs) >= replication``.
    """
    if not azs:
        raise ConfigError("need at least one AZ")
    num_groups = num_datanodes // replication
    assignment = []
    for index in range(num_datanodes):
        block = index // num_groups  # which replica block this node is in
        assignment.append(azs[block % len(azs)])
    return assignment


class NdbCluster:
    """A running NDB cluster inside one simulation environment."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        config: NdbConfig,
        schema: Schema,
        datanode_azs: Sequence[AzId],
        mgmt_azs: Sequence[AzId] = (1,),
        rng: Optional[RngRegistry] = None,
    ):
        if len(datanode_azs) != config.num_datanodes:
            raise ConfigError(
                f"az assignment has {len(datanode_azs)} entries for "
                f"{config.num_datanodes} datanodes"
            )
        self.env = env
        self.network = network
        self.config = config
        self.schema = schema
        self.rng = rng or RngRegistry()
        self.read_stats = ReadStats()
        self._txids = itertools.count(1)
        self._txn_tc: dict[int, NodeAddress] = {}
        self.started = False

        self.datanodes: dict[NodeAddress, NdbDatanode] = {}
        for i, az in enumerate(datanode_azs, start=1):
            addr = NodeAddress(NodeKind.NDB_DATANODE, i)
            network.topology.add_host(addr, az=az, cores=32)
            self.datanodes[addr] = NdbDatanode(env, network, self, addr, az)

        self.partition_map = PartitionMap(
            list(self.datanodes.keys()), config.replication, config.num_partitions
        )

        self.mgmt_nodes: list[ManagementNode] = []
        for i, az in enumerate(mgmt_azs, start=1):
            addr = NodeAddress(NodeKind.NDB_MGMT, i)
            network.topology.add_host(addr, az=az, cores=2)
            self.mgmt_nodes.append(ManagementNode(env, network, addr, az))

        self.heartbeats = HeartbeatProtocol(self)
        self._heartbeats_started = False
        # Committed-mutation stream for subscriber caches (listing cache).
        # With no subscribers every publish is a pure no-op, so legacy
        # schedules stay bit-identical.
        self.changelog = ChangelogBus(network)

    # ------------------------------------------------------------------ life
    def start(self, heartbeats: bool = True) -> None:
        if self.started:
            return
        self.started = True
        for dn in self.datanodes.values():
            dn.start()
        for mgmt in self.mgmt_nodes:
            mgmt.start()
        if heartbeats:
            self.heartbeats.watch(*self.datanodes.values())
            self._heartbeats_started = True

    def is_operational(self) -> bool:
        return self.partition_map.cluster_viable() and any(
            dn.running for dn in self.datanodes.values()
        )

    # --------------------------------------------------------------- sessions
    def api(self, addr: NodeAddress) -> NdbApi:
        return NdbApi(self, addr)

    def next_txid(self) -> int:
        return next(self._txids)

    def register_txn(self, txid: int, tc: NodeAddress) -> None:
        self._txn_tc[txid] = tc

    def unregister_txn(self, txid: int) -> None:
        self._txn_tc.pop(txid, None)

    @property
    def active_transactions(self) -> int:
        return len(self._txn_tc)

    def registered_txids(self) -> tuple[int, ...]:
        return tuple(sorted(self._txn_tc))

    # ---------------------------------------------------------------- preload
    def preload(self, table_name: str, rows: Iterable[tuple[Hashable, Hashable, object]]) -> int:
        """Bulk-load committed rows, bypassing the commit protocol.

        ``rows`` yields ``(pk, partition_key, value)``.  Used to install the
        benchmark namespace before measurements start.  The members of a
        replica set store the same rows in the same order, so each set's
        batch is built once, one key per loaded row and the value itself,
        and every member takes it whole (:meth:`FragmentStore.load_new`);
        a batch that deletes or repeats a key, or a member already holding
        one of its keys, goes through ``load_many`` row by row instead.
        """
        fully_replicated = self.schema.table(table_name).fully_replicated
        replicas_for_key = self.partition_map.replicas_for_key
        # Replica set -> its batch: {key: value}, the (table, pk, partition
        # key, value) entries in order, and [((table, partition key), pks)].
        # The sets are disjoint (a node group's live members, or every live
        # node for a fully replicated table), so a node's rows are its
        # set's, in order.
        batches: dict[frozenset, tuple[dict, list, list]] = {}
        # partition key -> its set's rows and entries, and its pk list
        targets: dict[Hashable, tuple[dict, list, list]] = {}
        bulk = True  # no delete, no key twice
        count = 0
        for pk, partition_key, value in rows:
            target = targets.get(partition_key)
            if target is None:
                nodes = frozenset(replicas_for_key(partition_key, fully_replicated).all)
                batch = batches.get(nodes)
                if batch is None:
                    batch = batches[nodes] = ({}, [], [])
                pks = []
                batch[2].append(((table_name, partition_key), pks))
                target = targets[partition_key] = (batch[0], batch[1], pks)
            batch_rows, entries, pks = target
            key = (table_name, pk)
            if value is TOMBSTONE or key in batch_rows:
                bulk = False
            batch_rows[key] = value
            entries.append((table_name, pk, partition_key, value))
            pks.append(pk)
            count += 1
        for nodes, (batch_rows, entries, partitions) in batches.items():
            for node in nodes:
                store = self.datanodes[node].store
                if not (bulk and store.load_new(batch_rows, partitions)):
                    store.load_many(entries)
        return count

    # ---------------------------------------------------------------- failures
    def arbitrator(self) -> Optional[ManagementNode]:
        for mgmt in self.mgmt_nodes:
            if mgmt.running and self.network.is_up(mgmt.addr):
                return mgmt
        return None

    def crash_datanode(self, addr: NodeAddress, detect_now: bool = False) -> None:
        """Kill a datanode.  Detection normally comes from heartbeats."""
        dn = self.datanodes[addr]
        dn.shutdown("crashed")
        if detect_now:
            self.on_node_failed(addr)

    def on_node_failed(self, dead: NodeAddress) -> None:
        """The cluster-wide node failure protocol (Section IV-A2).

        Survivors in the dead node's group promote their backup fragments
        (via :class:`PartitionMap`), pending chain operations through the
        dead node abort, and transactions whose TC died are rolled back on
        the survivors — the observable effect of NDB's take-over protocol.
        """
        if not self.partition_map.is_up(dead):
            return
        self.partition_map.mark_down(dead)
        self.datanodes[dead].shutdown("declared failed")
        if not self.partition_map.cluster_viable():
            self.shutdown_component(
                {dn.addr for dn in self.datanodes.values() if dn.running},
                "a whole node group failed: metadata lost",
            )
            return
        survivors = [dn for _, dn in sorted(self.datanodes.items()) if dn.running]
        for dn in survivors:
            dn.on_peer_failed(dead)
        self._take_over_orphans({dead}, survivors)

    def _take_over_orphans(self, dead_addrs, survivors) -> None:
        """Settle transactions whose TC died (NDB take-over, Section IV-A2).

        Covers both txids still registered here and txids the dead TC had
        already unregistered but whose release/complete messages died on
        its send queue (survivors still hold their locks).  A transaction
        rolls *forward* when any survivor saw its ChainCommit pass through
        — the commit point was reached and the client may already hold a
        success reply — and rolls back otherwise.
        """
        orphaned = {txid for txid, tc in self._txn_tc.items() if tc in dead_addrs}
        for dn in survivors:
            for dead in sorted(dead_addrs):
                orphaned |= dn.txids_coordinated_by(dead)
        rolled_forward = False
        for txid in sorted(orphaned):
            commit = any(dn.has_commit_evidence(txid) for dn in survivors)
            rolled_forward = rolled_forward or commit
            for dn in survivors:
                dn.take_over(txid, commit)
            self.unregister_txn(txid)
        # A roll-forward commits rows without the dead TC's op images, so
        # the changelog cannot itemize them; a flush order makes subscriber
        # caches flush wholesale instead of trusting stale entries.
        if rolled_forward and survivors:
            self.changelog.publish_flush(survivors[0].addr)

    def restart_datanode(self, addr: NodeAddress):
        """Node recovery: rejoin a failed datanode (generator).

        Mirrors NDB's node-recovery phases: the starting node comes back
        up, copies its fragments from a live member of its node group
        (time proportional to the data volume), levels with it once more
        for the commits that landed during the copy, and only then rejoins
        the partition map so it can serve replicas again.  With no member of
        the group up and running there is no live copy: the node restores
        the fragments it held when it went down, as NDB's system restart
        does from local disk.
        """
        dn = self.datanodes[addr]
        if dn.running:
            return
        disk = dn.store
        dn.restart()
        if self._heartbeats_started:
            self.heartbeats.watch(dn)

        donor = self._donor(addr)
        copied_rows = dn.store.level_with(disk if donor is None else donor.store)
        # Recovery time: fragment copy over the network (modelled in bulk).
        yield self.env.timeout(copied_rows * self.config.costs.ldm_read)
        # Commits of the copy window reached only the running members:
        # level with one again before serving.
        donor = self._donor(addr)
        if donor is not None:
            dn.store.level_with(donor.store)
        self.partition_map.mark_up(addr)
        # Transactions already in flight computed their replica chains while
        # this node was down; their commits land only on the old replicas.
        # NDB's synchronization phase covers that tail — modelled as a
        # reconciliation sweep once every straddling transaction has ended.
        self.env.process(self._reconcile(addr), name=f"{addr}:recovery-sync")
        return copied_rows

    def _donor(self, addr: NodeAddress) -> Optional[NdbDatanode]:
        """The member of ``addr``'s node group a recovery copies from: the
        first other one that is up and running.  A crashed member not yet
        declared failed is still up, and may have missed a commit."""
        group = next(g for g in self.partition_map.node_groups if addr in g)
        is_up = self.partition_map.is_up
        return next(
            (self.datanodes[m] for m in group
             if m != addr and is_up(m) and self.datanodes[m].running),
            None,
        )

    def _reconcile(self, addr: NodeAddress):
        """Copy any rows that in-flight transactions changed during rejoin."""
        horizon = self.config.deadlock_timeout_ms + 10 * self.config.heartbeat_interval_ms
        yield self.env.timeout(horizon)
        dn = self.datanodes[addr]
        if not dn.running or not self.partition_map.is_up(addr):
            return
        donor = self._donor(addr)
        if donor is not None:
            dn.store.level_with(donor.store)

    def shutdown_component(self, addrs: set[NodeAddress], reason: str) -> None:
        # Sorted so shutdown order is deterministic across processes (the
        # caller passes a set, whose iteration order is hash-seed dependent).
        for addr in sorted(addrs):
            dn = self.datanodes.get(addr)
            if dn is not None and dn.running:
                dn.shutdown(reason)
            if self.partition_map.is_up(addr):
                self.partition_map.mark_down(addr)
        # The surviving component runs its node-failure handling for every
        # departed node: fail pending chain operations through them and roll
        # back transactions they coordinated.  This cannot ride on
        # on_node_failed — the departed nodes are already marked down, so
        # its is_up() idempotence guard would skip the take-over work.
        survivors = [
            dn
            for a, dn in sorted(self.datanodes.items())
            if dn.running and a not in addrs
        ]
        if not survivors:
            return
        for addr in sorted(addrs):
            for dn in survivors:
                dn.on_peer_failed(addr)
        self._take_over_orphans(set(addrs), survivors)

    def heal(self) -> None:
        """Heal partitions and reset arbitration epochs (not node restarts)."""
        self.network.heal_partitions()
        for mgmt in self.mgmt_nodes:
            mgmt.reset_arbitration()

    # ------------------------------------------------------------------ stats
    def thread_busy(self) -> dict[str, tuple[float, int]]:
        """Aggregate (busy_ms, cores) per NDB thread type, for Figure 11."""
        totals: dict[str, tuple[float, int]] = {}

        def add(name: str, busy: float, cores: int) -> None:
            b, c = totals.get(name, (0.0, 0))
            totals[name] = (b + busy, c + cores)

        for dn in self.datanodes.values():
            for pool in dn.ldm_pools:
                add("ldm", pool.busy_time, pool.cores)
            add("tc", dn.tc_pool.busy_time, dn.tc_pool.cores)
            add("recv", dn.recv_pool.busy_time, dn.recv_pool.cores)
            add("send", dn.send_pool.busy_time, dn.send_pool.cores)
            add("rep", dn.rep_pool.busy_time, dn.rep_pool.cores)
            add("io", dn.io_pool.busy_time, dn.io_pool.cores)
            add("main", dn.main_pool.busy_time, dn.main_pool.cores)
        return totals

    def disk_stats(self) -> dict[NodeAddress, tuple[int, int]]:
        """(bytes_read, bytes_written) per datanode disk."""
        return {
            dn.addr: (dn.disk.bytes_read, dn.disk.bytes_written)
            for dn in self.datanodes.values()
        }
