"""CephFS cluster assembly: MON, OSDs, MDS ranks and clients.

The evaluation's HA deployment (Section V-A-b): 12 OSDs matching the 12
NDB datanodes, metadata replication factor 3, OSDs and MDSs spread over
the three AZs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..errors import ConfigError
from ..net import Network, build_us_west1
from ..sim import Environment, RngRegistry
from ..types import AzId, NodeAddress, NodeKind
from .config import CephConfig
from .kclient import CephClient
from .mds import Mds
from .osd import Osd
from .subtree import SubtreePartitioner

__all__ = ["CephCluster", "build_cephfs"]


@dataclass
class CephCluster:
    """A running CephFS deployment."""

    env: Environment
    network: Network
    config: CephConfig
    mds_list: list[Mds]
    osds: list[Osd]
    partitioner: SubtreePartitioner
    azs: tuple[AzId, ...]
    rng: RngRegistry
    _client_ids: itertools.count = field(default_factory=lambda: itertools.count(1))
    _client_az_cycle: Optional[itertools.cycle] = None

    @property
    def topology(self):
        return self.network.topology

    def mds_addrs(self) -> list[NodeAddress]:
        return [mds.addr for mds in self.mds_list]

    def journal_targets(self, rank: int, seq: int) -> list[NodeAddress]:
        """OSDs receiving a journal flush: ``osd_replication`` distinct ones.

        Chosen deterministically per (rank, seq) and spread over AZs when
        the cluster spans several — the replicated-bucket layout of the
        paper's HA setup.
        """
        n = len(self.osds)
        r = min(self.config.osd_replication, n)
        start = (rank * 7 + seq) % n
        # OSDs are placed round-robin over AZs, so striding by num-AZs-ish
        # offsets lands replicas in distinct AZs whenever possible.
        stride = max(1, n // r)
        return [self.osds[(start + i * stride) % n].addr for i in range(r)]

    def client(self, az: Optional[AzId] = None) -> CephClient:
        if az is None:
            if self._client_az_cycle is None:
                self._client_az_cycle = itertools.cycle(self.azs)
            az = next(self._client_az_cycle)
        index = next(self._client_ids)
        addr = NodeAddress(NodeKind.CLIENT, 100_000 + index)
        self.topology.add_host(addr, az=az, cores=8)
        client = CephClient(
            env=self.env,
            network=self.network,
            addr=addr,
            az=az,
            mds_addrs=self.mds_addrs(),
            partitioner=self.partitioner,
            config=self.config,
        )
        client.start()
        return client

    def mds_for_dir(self, dir_path: str) -> Mds:
        return self.mds_list[self.partitioner.dir_rank(dir_path) % len(self.mds_list)]

    def mirror_dir(self, inode) -> None:
        """Register a directory inode on its own-authority rank.

        A directory's entry lives with its parent's subtree while its
        children form a new subtree; the mirror models Ceph's subtree
        export so listings find the inode.
        """
        owner = self.mds_for_dir(inode.path)
        owner.shard.inodes.setdefault(inode.path, inode)

    def unmirror_dir(self, path: str) -> None:
        owner = self.mds_for_dir(path)
        owner.shard.inodes.pop(path, None)
        owner.shard.children.pop(path, None)

    def preload(self, paths: Sequence[tuple[str, bool]]) -> int:
        """Install a namespace: (path, is_dir) pairs, parents first, the
        root excluded.  Each inode lands on the rank serving its directory;
        a directory whose own subtree another rank serves is mirrored there
        as :meth:`mirror_dir` mirrors one made at run time."""
        mds_list, n = self.mds_list, len(self.mds_list)
        dir_rank = self.partitioner.dir_rank
        last_parent = mds = None
        for path, is_dir in paths:
            parent, _slash, name = path.rpartition("/")
            parent = parent or "/"
            if parent != last_parent:  # siblings come in runs
                last_parent = parent
                mds = mds_list[dir_rank(parent) % n]
            inode = mds.load(path, parent, name, is_dir)
            if is_dir:
                owner = mds_list[dir_rank(path) % n]
                if owner is not mds:
                    owner.shard.inodes.setdefault(path, inode)
        return len(paths)

    # ----------------------------------------------------------- MDS failover
    def _failover_monitor(self):
        """Detect dead MDS ranks and fail their subtrees over.

        After the detection delay plus journal replay time, the surviving
        rank with the least load adopts the dead rank's shard.  The replay
        time is what makes DirPinned failovers slow (Section V-A-b).
        """
        interval = self.config.mds_failover_detect_ms
        handled: set[int] = set()
        while True:
            yield self.env.timeout(interval)
            for mds in self.mds_list:
                if mds.running or mds.rank in handled:
                    continue
                handled.add(mds.rank)
                self.env.process(
                    self._fail_over(mds), name=f"failover-mds{mds.rank}"
                )

    def _fail_over(self, dead):
        survivors = [m for m in self.mds_list if m.running]
        if not survivors:
            return
        takeover = min(survivors, key=lambda m: (len(m.shard.inodes), m.rank))
        # Journal replay: proportional to the dead rank's journal volume.
        replay_bytes = max(
            self.config.journal_entry_bytes,
            dead.journal_pending_bytes
            + dead.journal_flushes * self.config.journal_entry_bytes,
        )
        yield self.env.timeout(replay_bytes / self.config.mds_journal_replay_bytes_per_ms)
        takeover.shard.inodes.update(dead.shard.inodes)
        for parent, kids in dead.shard.children.items():
            takeover.shard.children.setdefault(parent, set()).update(kids)
        self.partitioner.install_override(dead.rank, takeover.rank)
        self.failovers = getattr(self, "failovers", 0) + 1


def build_cephfs(
    num_mds: int = 2,
    azs: Sequence[AzId] = (1, 2, 3),
    config: Optional[CephConfig] = None,
    env: Optional[Environment] = None,
    network: Optional[Network] = None,
    seed: int = 0,
    az_link_bandwidth_bytes_per_ms: Optional[float] = None,
) -> CephCluster:
    """Build a CephFS deployment in a fresh (or shared) environment."""
    azs = tuple(azs)
    if not azs:
        raise ConfigError("need at least one AZ")
    env = env or Environment()
    rng = RngRegistry(seed=seed)
    if network is None:
        network = Network(
            env,
            build_us_west1(),
            az_link_bandwidth_bytes_per_ms=az_link_bandwidth_bytes_per_ms,
        )
    config = config or CephConfig()
    topology = network.topology

    mon_addr = NodeAddress(NodeKind.MON, 1)
    topology.add_host(mon_addr, az=azs[0], cores=4)

    osds = []
    for i in range(config.num_osds):
        addr = NodeAddress(NodeKind.OSD, i + 1)
        az = azs[i % len(azs)]
        topology.add_host(addr, az=az, cores=8)
        osds.append(
            Osd(
                env,
                network,
                addr,
                az,
                disk_bandwidth_bytes_per_ms=config.osd_disk_bandwidth_bytes_per_ms,
                cpu_cost_ms=config.osd_write_cost_ms,
            )
        )

    partitioner = SubtreePartitioner(num_mds, pinned=config.dir_pinning)
    cluster = CephCluster(
        env=env,
        network=network,
        config=config,
        mds_list=[],
        osds=osds,
        partitioner=partitioner,
        azs=azs,
        rng=rng,
    )
    for rank in range(num_mds):
        addr = NodeAddress(NodeKind.MDS, rank + 1)
        az = azs[rank % len(azs)]
        topology.add_host(addr, az=az, cores=32)  # only 1 core usable (global lock)
        cluster.mds_list.append(Mds(env, network, cluster, addr, az, rank))

    for osd in osds:
        osd.start()
    for mds in cluster.mds_list:
        mds.start()
    env.process(cluster._failover_monitor(), name="mds-failover-monitor")
    return cluster
