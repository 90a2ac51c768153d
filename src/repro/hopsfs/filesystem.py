"""Deployment builder: assemble HopsFS / HopsFS-CL clusters.

``build_hopsfs(az_aware=False, ...)`` gives vanilla HopsFS; with
``az_aware=True`` every layer becomes AZ-aware (HopsFS-CL): Read Backup on
all tables, AZ-aware TC selection and proximity ordering in NDB, AZ-local
metadata-server selection for clients, and AZ-aware block placement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional, Sequence

from ..errors import ConfigError
from ..ndb import NdbCluster, NdbConfig
from ..ndb.cluster import az_assignment_for
from ..net import Network, build_us_west1
from ..obs.metrics import count
from ..sim import Environment, RngRegistry
from ..types import ANY_AZ, AzId, NodeAddress, NodeKind
from .blocks import PlacementPolicy
from .client import HopsFsClient
from .config import HopsFsConfig
from .datanode import BlockStoreDatanode
from .elastic import Autoscaler, ProvisionRecord, ReconfigEvent, start_autoscaler
from .groupcommit import GroupCommitLedger
from .listcache import materialize_snapshot
from .metadata import IdGenerator, define_fs_schema
from .namenode import Namenode
from .pathlock import root_row

__all__ = ["HopsFsDeployment", "build_hopsfs"]


@dataclass
class HopsFsDeployment:
    """A running HopsFS(-CL) cluster plus factories for clients."""

    # Graceful drain: stop admitting, wait this long for in-flight ops to
    # finish (they virtually always do — this is a hang bound, not a kill).
    DRAIN_GRACE_MS = 50.0
    # The reconfiguration-latency watcher polls the peers' membership views
    # this often until the change is visible, and gives up after
    # VISIBILITY_TIMEOUT_MS.
    VISIBILITY_POLL_MS = 5.0
    VISIBILITY_TIMEOUT_MS = 5000.0

    env: Environment
    network: Network
    ndb: NdbCluster
    namenodes: list[Namenode]
    block_datanodes: list[BlockStoreDatanode]
    config: HopsFsConfig
    azs: tuple[AzId, ...]
    az_aware: bool
    ids: IdGenerator
    rng: RngRegistry
    # The shared batch ledger of the NNs' commit parts: horizons are
    # deployment-global, and the durability-horizon invariant audits it.
    # Empty on the synchronous path.
    group_ledger: GroupCommitLedger
    # One applied-mutation ledger shared by every NN (robust mode writes
    # it); the chaos exactly-once invariant audits it for duplicate ids.
    mutation_ledger: list = field(default_factory=list)
    # The autoscaler process (None unless the elastic tier autoscales),
    # the reconfiguration log (ReconfigEvent rows the artifact reports),
    # per-NN provisioned intervals (NN·second cost accounting), and the
    # addresses legitimately removed from the pool — decommissioned
    # (graceful) vs preempted (spot kill) — which the chaos target and the
    # SLO liveness exemptions consult.
    autoscaler: Optional[Autoscaler] = None
    reconfig_log: list = field(default_factory=list)
    provision_log: list = field(default_factory=list)
    decommissioned: set = field(default_factory=set)
    preempted: set = field(default_factory=set)
    _client_ids: itertools.count = field(default_factory=lambda: itertools.count(1))
    _client_az_cycle: Optional[itertools.cycle] = None
    _nn_ids: Optional[itertools.count] = None
    _election_enabled: bool = True

    @property
    def topology(self):
        return self.network.topology

    def client(self, az: Optional[AzId] = None) -> HopsFsClient:
        """Create a client host; AZs rotate over the deployment's AZs."""
        if az is None:
            if self._client_az_cycle is None:
                self._client_az_cycle = itertools.cycle(self.azs)
            az = next(self._client_az_cycle)
        index = next(self._client_ids)
        addr = NodeAddress(NodeKind.CLIENT, index)
        self.network.topology.add_host(addr, az=az, cores=8)
        return HopsFsClient(
            self.env, self.network, addr, map(attrgetter("addr"), self.namenodes), self.rng,
            self.config, location_domain_id=az if self.az_aware else ANY_AZ,
        )

    def committed_inodes(self) -> list:
        """The committed ``inodes`` rows, in primary-key order.

        One running member per node group is read: the groups hold disjoint
        partitions, and the members of one hold the same rows.
        """
        rows: dict = {}
        datanodes = self.ndb.datanodes
        for group in self.ndb.partition_map.node_groups:
            member = next((datanodes[a] for a in group if datanodes[a].running), None)
            if member is not None:
                rows.update(member.store.iter_rows("inodes"))
        return [rows[pk] for pk in sorted(rows)]

    def prewarm_listing_caches(self) -> None:
        """Pre-materialize every NN's listing cache from committed NDB state.

        The paper's namenode bootstraps its cache with a snapshot when it
        subscribes to the changelog; the stream keeps it fresh from there.
        Call after the namespace is installed (experiment setup reaches
        steady state long before the measurement window).  The snapshot is
        built once, by the first cache that takes it; a read front that is
        switched off takes nothing.
        """
        built = []

        def snapshot():
            if not built:
                built.append(materialize_snapshot(self.committed_inodes(), self.env.now))
            return built[0]

        for nn in self.namenodes:
            if nn.running:
                nn.listing_cache.prewarm(snapshot)

    def leader_namenode(self) -> Optional[Namenode]:
        for nn in self.namenodes:
            if nn.running and nn.is_leader:
                return nn
        return None

    def await_election(self):
        """Generator: wait until the election view has stabilized.

        The first round only shows each NN its own row (concurrent rounds
        commit after the scan); after every live NN has completed two
        rounds the membership view and leader are consistent.
        """
        while [nn for nn in self.namenodes if nn.running and nn.election.rounds < 2]:
            yield self.env.timeout(1.0)

    # ----------------------------------------------------- elastic lifecycle
    def serving_namenodes(self) -> list[Namenode]:
        """NNs currently admitting work (running and not draining)."""
        return [nn for nn in self.namenodes if nn.running and not nn.draining]

    def add_namenode(
        self, az: Optional[AzId] = None, reason: str = "manual"
    ) -> Namenode:
        """Provision a new NN into the running pool (stateless: no data moves).

        The new NN registers a fresh host, joins the election (peers see it
        on their next scan), and starts admitting as soon as clients learn
        of it via membership refresh.  Block datanodes add it to their
        heartbeat fan-out so its block manager learns DN liveness within
        one heartbeat interval.
        """
        if self._nn_ids is None:
            self._nn_ids = itertools.count(
                max((nn.nn_id for nn in self.namenodes), default=0) + 1
            )
        if az is None:
            counts = {a: 0 for a in self.azs}
            for nn in self.serving_namenodes():
                counts[nn.az] = counts.get(nn.az, 0) + 1
            az = min(counts, key=lambda a: (counts[a], a))
        nn = self._new_namenode(next(self._nn_ids), az)
        for dn in self.block_datanodes:
            dn.namenode_addrs.append(nn.addr)
        nn.start()
        event = ReconfigEvent(
            "add", nn.nn_id, str(nn.addr), az, decided_ms=self.env.now, detail=reason
        )
        self.reconfig_log.append(event)
        event.completed_ms = self.env.now
        count(self.env, "elastic.add")
        self._watch_visibility(nn, event, joining=True)
        return nn

    def _new_namenode(self, index: int, az: AzId) -> Namenode:
        """The one place a namenode is built and wired into the deployment.

        Boot-time and runtime NNs get the same host registration, shared
        ledgers (which the commit part the constructor builds from the
        config rides) and provisioning record.
        """
        addr = NodeAddress(NodeKind.NAMENODE, index)
        self.network.topology.add_host(addr, az=az, cores=self.config.nn_cores)
        nn = Namenode(
            self.env,
            self.network,
            self.ndb,
            self.config,
            addr,
            az,
            nn_id=index,
            ids=self.ids,
            placement_policy=(
                PlacementPolicy.AZ_AWARE if self.az_aware else PlacementPolicy.DEFAULT
            ),
            mutation_ledger=self.mutation_ledger,
            group_ledger=self.group_ledger,
            election=self._election_enabled,
        )
        self.namenodes.append(nn)
        # NN·second cost accounting starts at provisioning.
        self.provision_log.append(
            ProvisionRecord(index, str(addr), az, start_ms=self.env.now)
        )
        return nn

    def decommission_namenode(self, nn, reason: str = "manual"):
        """Generator: gracefully drain an NN out of the pool.

        Stop admitting → finish (or shed after the grace) in-flight ops →
        flush any open group-commit batch to a real commit/abort → delete
        the leader row so the membership view converges immediately →
        shut down.  Nothing the NN acked is left in doubt; the
        drained-NN-ack invariant audits exactly that.
        """
        nn = self._resolve(nn)
        if nn is None or not nn.running or nn.addr in self.decommissioned:
            return
        env = self.env
        event = ReconfigEvent(
            "decommission", nn.nn_id, str(nn.addr), nn.az,
            decided_ms=env.now, detail=reason,
        )
        self.reconfig_log.append(event)
        count(self.env, "elastic.decommission")
        # Flag the retirement to the SLO engine *at decision time*: the
        # NN's per-server series goes quiet from here on, and the liveness
        # floor must know the silence is planned before it starts burning.
        self._mark_retired(nn)
        lost_before = self.group_ledger.lost_acks
        forced = yield from nn.drain(grace_ms=self.DRAIN_GRACE_MS)
        yield from nn.election.deregister()
        nn.shutdown()
        event.forced_shutdown = bool(forced)
        event.lost_acks_during_drain = self.group_ledger.lost_acks - lost_before
        self.decommissioned.add(nn.addr)
        self._end_provision(nn)
        event.completed_ms = env.now
        self._watch_visibility(nn, event, joining=False)

    def preempt_namenode(self, nn, warning_ms: float = 5.0):
        """Generator: spot-style kill — a short warning, then the plug.

        During the warning the NN drains best-effort (stops admitting,
        hurries its open batch); whatever has not settled when the window
        closes is lost exactly as a crash would lose it.  Unlike a
        decommission the leader row is not deregistered — peers drop the
        NN only after the liveness horizon expires, and the SLO monitor is
        expected to *detect* the preemption (its ground-truth window).
        """
        nn = self._resolve(nn)
        if nn is None or not nn.running:
            return
        env = self.env
        event = ReconfigEvent(
            "preempt", nn.nn_id, str(nn.addr), nn.az,
            decided_ms=env.now, detail=f"warning={warning_ms}ms",
        )
        self.reconfig_log.append(event)
        count(self.env, "elastic.preempt")
        drain = env.process(
            nn.drain(grace_ms=warning_ms, poll_ms=1.0),
            name=f"{nn.addr}:preempt-drain",
        )
        yield env.any_of([drain, env.timeout(warning_ms)])
        if nn.running:
            nn.shutdown()
        self.preempted.add(nn.addr)
        self._end_provision(nn)
        event.completed_ms = env.now
        self._watch_visibility(nn, event, joining=False)

    def _resolve(self, nn) -> Optional[Namenode]:
        if isinstance(nn, Namenode):
            return nn
        for cand in self.namenodes:
            if cand.addr == nn or str(cand.addr) == str(nn):
                return cand
        return None

    def _end_provision(self, nn) -> None:
        for rec in self.provision_log:
            if rec.nn_id == nn.nn_id and rec.end_ms is None:
                rec.end_ms = self.env.now
        for dn in self.block_datanodes:
            if nn.addr in dn.namenode_addrs:
                dn.namenode_addrs.remove(nn.addr)
        # Retired NNs stop receiving changelog fan-out (the bus would
        # otherwise keep sending to a permanently-down address); a no-op
        # for an NN that never subscribed.
        self.ndb.changelog.unsubscribe(nn.addr)

    def _watch_visibility(self, nn, event: ReconfigEvent, joining: bool) -> None:
        """Poll peers' membership views until the change is client-visible."""
        poll_ms = self.VISIBILITY_POLL_MS

        def watch():
            deadline = self.env.now + self.VISIBILITY_TIMEOUT_MS
            while self.env.now < deadline:
                peers = [
                    p for p in self.namenodes
                    if p.running and p is not nn and p.election.rounds > 0
                ]
                if peers:
                    seen = [
                        any(row[0] == nn.nn_id for row in p.election.active)
                        for p in peers
                    ]
                    if joining and any(seen):
                        # In ≥1 peer's view: a client refresh can route here.
                        event.visible_ms = self.env.now
                        return
                    if not joining and not any(seen):
                        # Out of every view: no refresh can route here.
                        event.visible_ms = self.env.now
                        return
                elif not joining:
                    event.visible_ms = self.env.now
                    return
                yield self.env.timeout(poll_ms)

        self.env.process(watch(), name=f"{nn.addr}:reconfig-watch")

    def _mark_retired(self, nn) -> None:
        obs = self.env.obs
        if obs is not None and obs.timeseries is not None:
            obs.timeseries.inc(
                f"component.retired.nn.handle.{nn.addr}", self.env.now
            )


def build_hopsfs(
    num_namenodes: int = 2,
    azs: Sequence[AzId] = (2,),
    az_aware: bool = False,
    num_block_datanodes: int = 0,
    env: Optional[Environment] = None,
    seed: int = 0,
    hopsfs_config: Optional[HopsFsConfig] = None,
    ndb_config: Optional[NdbConfig] = None,
    election: bool = True,
    heartbeats: bool = False,
    az_link_bandwidth_bytes_per_ms: Optional[float] = None,
    fully_replicated_leader: bool = False,
) -> HopsFsDeployment:
    """Build a full deployment in a fresh (or given) simulation environment.

    ``azs`` lists the AZs hosting data (paper setups: ``(2,)`` for one AZ,
    ``(2, 3)`` or ``(1, 2, 3)`` for HA).  Management nodes are placed one
    per region AZ with the arbitrator in the AZ with the fewest datanodes
    (Figures 3 and 4).
    """
    azs = tuple(azs)
    if not azs:
        raise ConfigError("need at least one AZ")
    env = env or Environment()
    rng = RngRegistry(seed=seed)
    topology = build_us_west1()
    network = Network(
        env, topology, az_link_bandwidth_bytes_per_ms=az_link_bandwidth_bytes_per_ms
    )
    config = hopsfs_config or HopsFsConfig()
    if ndb_config is None:
        ndb_config = NdbConfig(az_aware=az_aware)
    schema = define_fs_schema(
        read_backup=az_aware, fully_replicated_leader=fully_replicated_leader
    )

    # Arbitrator AZ first: the region AZ hosting the fewest NDB datanodes.
    data_az_load = {az: 0 for az in range(1, topology.num_azs + 1)}
    dn_azs = az_assignment_for(ndb_config.num_datanodes, ndb_config.replication, list(azs))
    for az in dn_azs:
        data_az_load[az] += 1
    mgmt_azs = sorted(data_az_load, key=lambda az: (data_az_load[az], az))

    ndb = NdbCluster(
        env,
        network,
        ndb_config,
        schema,
        datanode_azs=dn_azs,
        mgmt_azs=mgmt_azs,
        rng=rng,
    )

    # All NNs share one applied-mutation ledger and one batch ledger (the
    # deployment's).
    deployment = HopsFsDeployment(
        env=env,
        network=network,
        ndb=ndb,
        namenodes=[],
        block_datanodes=[],
        config=config,
        azs=azs,
        az_aware=az_aware,
        ids=IdGenerator(),
        rng=rng,
        group_ledger=GroupCommitLedger(env),
        _election_enabled=election,
    )
    for i in range(num_namenodes):
        deployment._new_namenode(i + 1, azs[i % len(azs)])
    namenodes = deployment.namenodes

    block_datanodes = deployment.block_datanodes
    for i in range(num_block_datanodes):
        az = azs[i % len(azs)]
        addr = NodeAddress(NodeKind.DATANODE, i + 1)
        topology.add_host(addr, az=az, cores=8)
        block_datanodes.append(
            BlockStoreDatanode(
                env,
                network,
                addr,
                az,
                namenode_addrs=[nn.addr for nn in namenodes],
                heartbeat_interval_ms=config.dn_heartbeat_interval_ms,
                disk_bandwidth_bytes_per_ms=config.dn_disk_bandwidth_bytes_per_ms,
            )
        )

    # Install the root directory before anything runs.
    ndb.preload("inodes", [((0, ""), 0, root_row())])

    ndb.start(heartbeats=heartbeats)
    for nn in namenodes:
        nn.start()
    for dn in block_datanodes:
        dn.start()

    # The elastic tier's load-driven autoscaler (a fixed pool runs none).
    deployment.autoscaler = start_autoscaler(deployment, config.elastic)
    return deployment
