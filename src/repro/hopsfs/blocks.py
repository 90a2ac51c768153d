"""Block management: placement policies and re-replication.

Section IV-C of the paper: the rack-aware placement policy is re-targeted
at AZs (racks == AZs), guaranteeing that block replicas span AZs so the
loss of an AZ cannot lose data.  The leader NN monitors block-storage
datanode heartbeats and triggers re-replication when one fails.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import PlacementError
from ..types import AzId, NodeAddress

__all__ = ["PlacementPolicy", "choose_targets", "BlockManager", "DnInfo"]


class PlacementPolicy(str, enum.Enum):
    """How block replicas are spread over block-storage datanodes."""

    DEFAULT = "default"  # HDFS default, topology-unaware at AZ level
    AZ_AWARE = "az_aware"  # rack-aware policy with AZs as the racks


def choose_targets(
    dn_azs: dict[NodeAddress, AzId],
    policy: PlacementPolicy,
    writer_az: AzId,
    replication: int,
    rng,
    exclude: Sequence[NodeAddress] = (),
) -> tuple[NodeAddress, ...]:
    """Pick ``replication`` distinct datanodes for a new block.

    AZ-aware mode places the first replica near the writer and spreads the
    rest so that as many AZs as possible hold a replica (at least two AZs
    whenever the cluster spans more than one).
    """
    candidates = [dn for dn in sorted(dn_azs) if dn not in set(exclude)]
    if len(candidates) < replication:
        raise PlacementError(
            f"need {replication} datanodes, only {len(candidates)} available"
        )
    if policy is PlacementPolicy.DEFAULT:
        return tuple(rng.sample(candidates, replication))

    chosen: list[NodeAddress] = []
    used_azs: set[AzId] = set()
    # First replica: writer-local AZ if possible (cheap pipeline start).
    local = [dn for dn in candidates if dn_azs[dn] == writer_az]
    first = rng.choice(local) if local else rng.choice(candidates)
    chosen.append(first)
    used_azs.add(dn_azs[first])
    # Subsequent replicas: prefer AZs not yet holding one.
    while len(chosen) < replication:
        remaining = [dn for dn in candidates if dn not in chosen]
        fresh_az = [dn for dn in remaining if dn_azs[dn] not in used_azs]
        pick = rng.choice(fresh_az) if fresh_az else rng.choice(remaining)
        chosen.append(pick)
        used_azs.add(dn_azs[pick])
    return tuple(chosen)


@dataclass
class DnInfo:
    """A namenode's view of one block-storage datanode."""

    address: NodeAddress
    az: AzId
    last_heartbeat_ms: float
    alive: bool = True
    block_ids: set = field(default_factory=set)


class BlockManager:
    """Per-NN block map + placement; the leader drives re-replication."""

    def __init__(self, namenode, policy: PlacementPolicy):
        self.nn = namenode
        self.policy = policy
        self.dns: dict[NodeAddress, DnInfo] = {}
        # block_id -> set of datanodes believed to hold a replica
        self.block_locations: dict[int, set[NodeAddress]] = {}
        # block_id -> inode id (the blocks table partition key)
        self.block_inode: dict[int, int] = {}
        self.rereplications = 0

    @functools.cached_property
    def _rng(self):
        """The placement stream, fetched at the first placement: streams
        derive by name, so fetching it late moves no draw, and a namenode
        that never places a block fetches none."""
        return self.nn.ndb.rng.stream(f"nn:{self.nn.addr}")

    # -- heartbeats / block reports ----------------------------------------
    def on_heartbeat(self, address: NodeAddress, az: AzId, block_ids) -> None:
        info = self.dns.get(address)
        if info is None:
            info = DnInfo(address=address, az=az, last_heartbeat_ms=self.nn.env.now)
            self.dns[address] = info
        info.alive = True
        info.last_heartbeat_ms = self.nn.env.now
        info.block_ids = set(block_ids)
        for block_id in block_ids:
            self.block_locations.setdefault(block_id, set()).add(address)

    def on_block_received(self, block_id: int, address: NodeAddress) -> None:
        self.block_locations.setdefault(block_id, set()).add(address)
        info = self.dns.get(address)
        if info is not None:
            info.block_ids.add(block_id)

    def live_dns(self) -> dict[NodeAddress, AzId]:
        return {a: i.az for a, i in self.dns.items() if i.alive}

    # -- placement ------------------------------------------------------------
    def place(self, client_hint: object, replication: int, exclude=()) -> tuple:
        """Placement callback used by the ``addBlock`` operation."""
        writer_az = 0
        if isinstance(client_hint, NodeAddress):
            try:
                writer_az = self.nn.network.topology.az_of(client_hint)
            except Exception:
                writer_az = 0
        elif isinstance(client_hint, int):
            writer_az = client_hint
        targets = choose_targets(
            self.live_dns(), self.policy, writer_az, replication, self._rng, exclude
        )
        return targets

    def record_new_block(self, block_id: int, locations) -> None:
        self.block_locations[block_id] = set(locations)

    def pick_rereplication_target(
        self, candidates: Sequence[NodeAddress], survivors: Sequence[NodeAddress]
    ):
        """Choose where a lost replica is rebuilt.

        Under the AZ-aware policy the replacement must restore AZ coverage:
        prefer a datanode in an AZ no surviving replica lives in, so an AZ
        outage followed by re-replication again leaves every AZ with a copy
        (Section IV-C).  The default policy keeps HDFS behaviour (any node).
        """
        if not candidates:
            return None
        if self.policy is PlacementPolicy.AZ_AWARE:
            covered = {
                self.dns[dn].az for dn in survivors if dn in self.dns
            }
            fresh = [
                dn
                for dn in candidates
                if dn in self.dns and self.dns[dn].az not in covered
            ]
            if fresh:
                return self._rng.choice(fresh)
        return self._rng.choice(list(candidates))

    # -- failure handling ----------------------------------------------------
    def check_expired(self, deadline_ms: float) -> list[NodeAddress]:
        """Mark DNs silent for longer than ``deadline_ms`` as dead."""
        now = self.nn.env.now
        newly_dead = []
        for info in self.dns.values():
            if info.alive and now - info.last_heartbeat_ms > deadline_ms:
                info.alive = False
                newly_dead.append(info.address)
        return newly_dead

    def under_replicated_on(self, dead: NodeAddress) -> list[tuple[int, set]]:
        """Blocks that lost a replica on ``dead``: (block_id, survivors)."""
        result = []
        info = self.dns.get(dead)
        if info is None:
            return result
        for block_id in sorted(info.block_ids):
            holders = self.block_locations.get(block_id, set())
            holders.discard(dead)
            result.append((block_id, set(holders)))
        info.block_ids.clear()
        return result
