"""The nine deployments of Section V-A: one table, one builder, one harness.

Setup naming follows the paper: ``HopsFS (R, Z)`` is vanilla HopsFS with
NDB replication factor R deployed over Z AZs; ``HopsFS-CL (R, Z)`` is the
AZ-aware redesign; the three CephFS variants differ in balancing and
client caching.

A deployment is data: a :class:`SetupSpec` row plus a :class:`Tuning`
(``BENCH`` for measurements, ``CHAOS`` for fault runs).
:meth:`SetupSpec.build` turns the two into a :class:`Harness` — one class
per stack — carrying both surfaces the rest of the repo drives: the runner
surface (install, ready, clients, cache warming, utilization) and the
fault surface (crash, recover, AZ queries, elastic membership).
Everything that touches several nodes iterates in sorted address order, so
fault execution is deterministic regardless of dict/set history.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import Optional

from ..cephfs import CephConfig, build_cephfs
from ..errors import ConfigError, ReproError
from ..hopsfs import SMALL_FILE_MAX_BYTES, HopsFsConfig, InodeRow, build_hopsfs, ops
from ..hopsfs.metadata import INODES_TABLE
from ..metrics.utilization import MB, ResourceReport, add_network_rates
from ..ndb import NdbConfig
from ..types import AzId, NodeAddress, NodeKind
from ..workloads.namespace import Namespace, install_cephfs, install_hopsfs

__all__ = [
    "SetupSpec",
    "SETUPS",
    "Tuning",
    "BENCH",
    "CHAOS",
    "PATHS",
    "Harness",
    "HopsFsHarness",
    "CephHarness",
    "setup_slug",
    "resolve_setup",
]

# Aggregate inter-AZ fabric capacity (bytes/ms, all cross-AZ traffic).
# Inter-AZ bandwidth is the scarce resource of Section III (C2); this value
# is calibrated so that the non-AZ-aware 3-AZ HopsFS setups lose ~17-22% at
# scale (Fig. 5) while the AZ-aware setups, whose reads stay AZ-local, are
# unaffected ("network I/O becomes a bottleneck", Section V-B1).
AZ_LINK_BANDWIDTH_BYTES_PER_MS = 1_800_000.0


@dataclass(frozen=True)
class Tuning:
    """Everything a measurement run and a fault run of one setup differ in.

    ``ndb`` / ``hopsfs`` / ``ceph`` are keyword overrides of the three
    config dataclasses; whatever they do not name keeps its default.
    """

    ndb: dict
    hopsfs: dict
    ceph: dict = field(default_factory=dict)
    block_datanodes_per_az: int = 0  # HopsFS block layer; 0 = metadata only
    heartbeats: bool = False  # NDB heartbeat ring (node-failure detection)
    az_link_bandwidth_bytes_per_ms: Optional[float] = None  # None = uncapped


# The paper's evaluation deployment (Section V-A).
BENCH = Tuning(
    ndb=dict(num_datanodes=12),
    hopsfs=dict(election_period_ms=100.0),
    az_link_bandwidth_bytes_per_ms=AZ_LINK_BANDWIDTH_BYTES_PER_MS,
)

# Same layouts with failure detection cranked down (millisecond heartbeats,
# fast elections and MDS failover) so fault scenarios resolve within short
# simulated horizons, and a block layer so AZ-aware re-replication runs.
CHAOS = Tuning(
    ndb=dict(
        num_datanodes=6,
        heartbeat_interval_ms=10.0,
        deadlock_timeout_ms=100.0,
        inactive_timeout_ms=120.0,
    ),
    hopsfs=dict(
        election_period_ms=50.0,
        op_cost_read_ms=0.02,
        op_cost_mutation_ms=0.04,
        dn_heartbeat_interval_ms=10.0,
    ),
    ceph=dict(mds_failover_detect_ms=20.0),
    block_datanodes_per_az=2,
    heartbeats=True,
)

# The opt-in serving paths are the ``HopsFsConfig`` fields that default to
# ``None``: a new path is a new field there and nothing here.
PATHS = tuple(f.name for f in fields(HopsFsConfig) if f.default is None)


@dataclass(frozen=True)
class SetupSpec:
    """Declarative description of one benchmark deployment."""

    name: str
    kind: str  # 'hopsfs' | 'cephfs'
    replication: int = 2
    azs: tuple[AzId, ...] = (2,)
    az_aware: bool = False
    dir_pinning: bool = False
    kclient_cache: bool = True

    def build(self, num_servers: int, seed: int = 0, tuning: Tuning = BENCH,
              **paths) -> "Harness":
        """Build this setup with ``num_servers`` metadata servers.

        ``paths`` opts a HopsFS setup into serving paths, keyed by
        ``HopsFsConfig`` field (:data:`PATHS`); CephFS has no equivalent
        and ignores them.
        """
        unknown = sorted(set(paths) - set(PATHS))
        if unknown:
            raise ConfigError(
                f"unknown serving path {', '.join(unknown)} "
                f"(valid: {', '.join(PATHS)})"
            )
        if self.kind == "hopsfs":
            return HopsFsHarness(self, num_servers, seed, tuning, paths)
        return CephHarness(self, num_servers, seed, tuning)


# The nine setups of the evaluation (Section V-A / Fig. 5).
SETUPS: dict[str, SetupSpec] = {
    "HopsFS (2,1)": SetupSpec("HopsFS (2,1)", "hopsfs", 2, (2,), az_aware=False),
    "HopsFS (3,1)": SetupSpec("HopsFS (3,1)", "hopsfs", 3, (2,), az_aware=False),
    "HopsFS (2,3)": SetupSpec("HopsFS (2,3)", "hopsfs", 2, (2, 3), az_aware=False),
    "HopsFS (3,3)": SetupSpec("HopsFS (3,3)", "hopsfs", 3, (1, 2, 3), az_aware=False),
    "HopsFS-CL (2,3)": SetupSpec("HopsFS-CL (2,3)", "hopsfs", 2, (2, 3), az_aware=True),
    "HopsFS-CL (3,3)": SetupSpec("HopsFS-CL (3,3)", "hopsfs", 3, (1, 2, 3), az_aware=True),
    "CephFS": SetupSpec("CephFS", "cephfs", 3, (1, 2, 3)),
    "CephFS - DirPinned": SetupSpec(
        "CephFS - DirPinned", "cephfs", 3, (1, 2, 3), dir_pinning=True
    ),
    "CephFS - SkipKCache": SetupSpec(
        "CephFS - SkipKCache", "cephfs", 3, (1, 2, 3), kclient_cache=False
    ),
}


def setup_slug(name: str) -> str:
    """CLI-friendly slug for a setup name: ``HopsFS-CL (3,3)`` -> ``hopsfs-cl-3-3``."""
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


_SLUGS = {setup_slug(name): name for name in SETUPS}


def resolve_setup(name: str) -> str:
    """Canonical pretty name for a setup given either that name or its slug."""
    if name in SETUPS:
        return name
    slug = setup_slug(name)
    if slug in _SLUGS:
        return _SLUGS[slug]
    raise ReproError(f"unknown setup {name!r} (try one of: {', '.join(sorted(_SLUGS))})")


class Harness:
    """One built deployment; subclasses wire in one stack.

    A subclass builds the stack (``deployment`` or ``cluster``) and supplies
    ``install``, ``warm_client_caches``, ``precreate``, ``server_node_ids``
    and the ``_client`` / ``_nodes`` / ``_busy_snapshot`` / ``_disk_stats`` /
    ``_cpu_report`` hooks the shared methods below are written over.
    """

    # Closed-loop clients per metadata server a saturation run should use;
    # None leaves it to the run's configuration.
    preferred_clients_per_server: Optional[int] = None

    def __init__(self, spec: SetupSpec, stack):
        self.spec = spec
        self.env = stack.env
        self.network = stack.network
        self.azs = stack.azs
        # Every client handed out by make_clients(); the deadline-compliance
        # invariant audits their recorded overruns after the run.
        self.clients: list = []

    # -- runner surface ------------------------------------------------------
    def ready(self):
        """Generator: wait until the deployment serves requests."""
        yield self.env.timeout(0)

    def make_clients(self, count: int, az: Optional[AzId] = None) -> list:
        """``count`` new clients, in ``az`` or rotating over the setup's AZs."""
        made = [self._client(az) for _ in range(count)]
        self.clients.extend(made)
        return made

    def mds_requests_since(self, snap: dict) -> Optional[int]:
        """Requests that reached a metadata server since ``snap``, where
        that differs from the ops clients completed (CephFS cache hits)."""
        return None

    def utilization_snapshot(self) -> dict:
        return {
            "t": self.env.now,
            "traffic": self.network.traffic,
            "disk": self._disk_stats(),
            **self._busy_snapshot(),
        }

    def utilization_report(self, snap: dict) -> ResourceReport:
        window = self.env.now - snap["t"]
        report = ResourceReport(window_ms=window)
        if window <= 0:
            return report
        storage, servers = self._cpu_report(report, snap, window)
        delta = self.network.traffic.delta_since(snap["traffic"])
        add_network_rates(report, delta, storage, servers, self.network.topology.az_of)
        writes = sum(
            now_w - snap["disk"].get(addr, (0, 0))[1]
            for addr, (_r, now_w) in self._disk_stats().items()
        )
        report.storage_disk_write_mb_s = writes / max(1, len(storage)) / window / MB
        return report

    # -- fault surface -------------------------------------------------------
    def managed_addrs(self) -> list[NodeAddress]:
        return sorted(self._nodes())

    def addrs_in_az(self, az: int) -> list[NodeAddress]:
        topo = self.network.topology
        return [a for a in self.managed_addrs() if topo.az_of(a) == az]

    def _node(self, addr: NodeAddress):
        node = self._nodes().get(addr)
        if node is None:
            raise ReproError(f"{self.spec.name}: no such node {addr}")
        return node

    def is_running(self, addr: NodeAddress) -> bool:
        return self._node(addr).running

    def crash(self, addr: NodeAddress) -> None:
        self._node(addr).shutdown()

    def recover(self, addr: NodeAddress):
        """Generator: bring one crashed daemon back."""
        self._node(addr).restart()
        yield self.env.timeout(0)

    def on_heal(self) -> None:
        """Stack-specific epilogue to a partition heal."""

    def seed_blocks(self, count: int = 0):
        """Generator: create block-layer state pre-fault (no-op by default)."""
        yield self.env.timeout(0)
        return 0

    # Elastic membership is HopsFS-only: CephFS has no stateless metadata
    # worker that can join or leave at runtime here.
    def _no_elastic(self, *_operands) -> str:
        raise ReproError(f"{self.spec.name}: elastic NN membership not supported")

    add_namenode = decommission_namenode = preempt_namenode = _no_elastic


class HopsFsHarness(Harness):
    """A HopsFS / HopsFS-CL deployment (NDB, namenodes, block datanodes)."""

    def __init__(self, spec: SetupSpec, num_servers: int, seed: int,
                 tuning: Tuning, paths: dict):
        block_datanodes = tuning.block_datanodes_per_az * len(spec.azs)
        if block_datanodes:
            # A one-AZ setup still needs one datanode per block replica.
            block_datanodes = max(block_datanodes, ops.DEFAULT_REPLICATION)
        self.deployment = build_hopsfs(
            num_namenodes=num_servers,
            azs=spec.azs,
            az_aware=spec.az_aware,
            num_block_datanodes=block_datanodes,
            ndb_config=NdbConfig(
                replication=spec.replication, az_aware=spec.az_aware, **tuning.ndb
            ),
            hopsfs_config=HopsFsConfig(**tuning.hopsfs, **paths),
            heartbeats=tuning.heartbeats,
            seed=seed,
            az_link_bandwidth_bytes_per_ms=tuning.az_link_bandwidth_bytes_per_ms,
        )
        super().__init__(spec, self.deployment)
        self._dir_ids = {"/": 1, "": 1}  # precreate()'s path -> inode id memo
        # What install() loaded; the installed-rows-survive invariant
        # audits that a run lost none of it.
        self.namespace: Optional[Namespace] = None

    # -- runner surface ------------------------------------------------------
    def ready(self):
        yield from self.deployment.await_election()

    def install(self, namespace: Namespace) -> int:
        self.namespace = namespace
        return install_hopsfs(self.deployment, namespace)

    def _client(self, az):
        return self.deployment.client(az)

    def warm_client_caches(self, clients, workload) -> None:
        """Steady-state listing caches: snapshot-bootstrapped, stream-fresh.

        The paper's NN pre-materializes its cache when it subscribes to the
        changelog, long before any measurement window; replaying that cold
        start every run would measure bootstrap, not the serving regime.
        No-op when the cache is disabled.
        """
        self.deployment.prewarm_listing_caches()

    def precreate(self, paths) -> None:
        """Preload empty files (the deleteFile microbenchmark's victims)."""
        dep = self.deployment
        rows = []
        for path in paths:
            parent_path, _s, name = path.rpartition("/")
            parent_id = self._dir_id(parent_path)
            if parent_id is None:
                continue
            row = InodeRow(id=dep.ids.next_inode_id(), parent_id=parent_id,
                           name=name, is_dir=False, small_data=b"")
            rows.append(((parent_id, name), parent_id, row))
        dep.ndb.preload(INODES_TABLE, rows)

    def _dir_id(self, path: str):
        """Resolve a directory path to its inode id via the fragment stores."""
        if path in self._dir_ids:
            return self._dir_ids[path]
        parent_path, _s, name = path.rpartition("/")
        parent_id = self._dir_id(parent_path)
        if parent_id is None:
            return None
        for dn in self.deployment.ndb.datanodes.values():
            row = dn.store.read(INODES_TABLE, (parent_id, name))
            if row is not None:
                self._dir_ids[path] = row.id
                return row.id
        return None

    def _busy_snapshot(self) -> dict:
        dep = self.deployment
        return {
            "threads": dep.ndb.thread_busy(),
            "nn_busy": {nn.addr: nn.handler_pool.busy_time for nn in dep.namenodes},
        }

    def _disk_stats(self) -> dict:
        return self.deployment.ndb.disk_stats()

    def _cpu_report(self, report: ResourceReport, snap: dict, window: float):
        dep = self.deployment
        total_busy, total_cores = 0.0, 0
        for name, (busy, cores) in dep.ndb.thread_busy().items():
            base = snap["threads"].get(name, (0.0, cores))[0]
            report.ndb_thread_cpu_pct[name] = 100.0 * (busy - base) / (cores * window)
            total_busy += busy - base
            total_cores += cores
        report.storage_cpu_pct = 100.0 * total_busy / (total_cores * window)
        nn_busy = sum(
            nn.handler_pool.busy_time - snap["nn_busy"].get(nn.addr, 0.0)
            for nn in dep.namenodes
        )
        report.server_cpu_pct = (
            100.0 * nn_busy / (len(dep.namenodes) * dep.config.nn_cores * window)
        )
        return list(dep.ndb.datanodes), [nn.addr for nn in dep.namenodes]

    # -- fault surface -------------------------------------------------------
    def _nodes(self) -> dict:
        # Rebuilt per call: the elastic lifecycle appends NNs at runtime.
        dep = self.deployment
        nodes = dict(dep.ndb.datanodes)
        for group in (dep.ndb.mgmt_nodes, dep.namenodes, dep.block_datanodes):
            nodes.update((node.addr, node) for node in group)
        return nodes

    def crash(self, addr: NodeAddress) -> None:
        node = self._node(addr)
        if addr.kind is NodeKind.NDB_DATANODE:
            # Detection comes from the heartbeat ring, as in production.
            self.deployment.ndb.crash_datanode(addr)
        else:
            node.shutdown()

    def recover(self, addr: NodeAddress):
        dep = self.deployment
        node = self._node(addr)
        if addr in dep.decommissioned:
            # A gracefully retired NN stays retired: recover_all after an
            # elastic scale-down must not resurrect it.
            yield self.env.timeout(0)
        elif addr.kind is NodeKind.NDB_DATANODE:
            yield from dep.ndb.restart_datanode(addr)
        else:
            node.restart()
            # Spot capacity that came back heartbeats again, so it is no
            # longer exempt from anything.
            dep.preempted.discard(addr)
            yield self.env.timeout(0)

    def on_heal(self) -> None:
        # Reset arbitration epochs so the next partition is judged afresh.
        self.deployment.ndb.heal()

    def seed_blocks(self, count: int = 4):
        """Create large files pre-fault so re-replication has work to do.

        Small files live inline in NDB (Section II-A3); without these the
        block-layer AZ-coverage invariant would be vacuously green.
        """
        if count <= 0 or not self.deployment.block_datanodes:
            yield self.env.timeout(0)
            return 0
        (client,) = self.make_clients(1)
        payload = b"x" * (SMALL_FILE_MAX_BYTES + 1024)
        yield from client.mkdirs("/chaos")
        for i in range(count):
            yield from client.create(f"/chaos/big{i}", data=payload)
        return count

    def server_node_ids(self) -> list[str]:
        """Metadata-server node ids, for rolling-restart schedules."""
        return [str(nn.addr) for nn in self.deployment.namenodes]

    # Drains and preemption warnings run as background processes, so a
    # churn storm never skews the firing times of later schedule events.
    def add_namenode(self, az) -> str:
        nn = self.deployment.add_namenode(az=az, reason="chaos")
        return f"added {nn.addr} in az{nn.az}"

    def decommission_namenode(self, addr: NodeAddress) -> str:
        self.env.process(
            self.deployment.decommission_namenode(addr, reason="chaos"),
            name=f"{addr}:decommission",
        )
        return f"decommissioning {addr} (draining)"

    def preempt_namenode(self, addr: NodeAddress, warning_ms: float) -> str:
        self.env.process(
            self.deployment.preempt_namenode(addr, warning_ms=warning_ms),
            name=f"{addr}:preempt",
        )
        return f"preempting {addr} (warning {warning_ms}ms)"


class CephHarness(Harness):
    """A CephFS cluster (MDS ranks + OSDs)."""

    # CephFS saturation throughput is insensitive to client count once the
    # MDSs are the bottleneck; fewer closed-loop clients keep queueing
    # transients (and simulation cost) bounded.
    preferred_clients_per_server = 8

    def __init__(self, spec: SetupSpec, num_servers: int, seed: int, tuning: Tuning):
        self.cluster = build_cephfs(
            num_mds=num_servers,
            azs=spec.azs,
            config=CephConfig(
                osd_replication=spec.replication,
                dir_pinning=spec.dir_pinning,
                kclient_cache=spec.kclient_cache,
                **tuning.ceph,
            ),
            seed=seed,
            az_link_bandwidth_bytes_per_ms=tuning.az_link_bandwidth_bytes_per_ms,
        )
        super().__init__(spec, self.cluster)

    # -- runner surface ------------------------------------------------------
    def install(self, namespace: Namespace) -> int:
        if self.spec.dir_pinning:
            # The operator pins the second-level directories round-robin
            # before any data lands (Section V-A-b).
            partitioner = self.cluster.partitioner
            partitioner.pin(partitioner.subtree_key_of_dir(d) for d in namespace.dirs)
        return install_cephfs(self.cluster, namespace)

    def _client(self, az):
        return self.cluster.client(az)

    def warm_client_caches(self, clients, workload) -> None:
        """Install steady-state kernel caches and capability registrations.

        The paper's clients mount CephFS long before the measurement; their
        working sets are cached under valid capabilities (the mechanism the
        SkipKCache setup disables to expose true MDS throughput).
        """
        cluster = self.cluster
        if not cluster.config.kclient_cache or not hasattr(workload, "working_set"):
            return
        for index, client in enumerate(clients):
            # dict.fromkeys = order-preserving dedupe; set() would make the
            # warm order (and thus cap-set contents) hash-seed dependent.
            for path in dict.fromkeys(workload.working_set(index)):
                rank = cluster.partitioner.rank_of(path) % len(cluster.mds_list)
                mds = cluster.mds_list[rank]
                inode = mds.shard.inodes.get(path)
                if inode is None:
                    continue
                client.cache[path] = inode
                mds.capabilities.setdefault(path, set()).add(client.addr)

    def precreate(self, paths) -> None:
        self.cluster.preload([(p, False) for p in paths])

    def mds_requests_since(self, snap: dict) -> int:
        return sum(
            m.ops_served - snap["mds_served"].get(m.addr, 0) for m in self.cluster.mds_list
        )

    def _busy_snapshot(self) -> dict:
        cluster = self.cluster
        return {
            "mds_busy": {m.addr: m.cpu.busy_time for m in cluster.mds_list},
            "osd_busy": {o.addr: o.cpu.busy_time for o in cluster.osds},
            "mds_served": {m.addr: m.ops_served for m in cluster.mds_list},
        }

    def _disk_stats(self) -> dict:
        return {o.addr: (o.disk.bytes_read, o.disk.bytes_written) for o in self.cluster.osds}

    def _cpu_report(self, report: ResourceReport, snap: dict, window: float):
        cluster = self.cluster
        mds_busy = sum(
            m.cpu.busy_time - snap["mds_busy"].get(m.addr, 0.0) for m in cluster.mds_list
        )
        # MDS hosts have 32 cores but a single-threaded server (Fig. 10b).
        report.server_cpu_pct = 100.0 * mds_busy / (len(cluster.mds_list) * 32 * window)
        osd_busy = sum(
            o.cpu.busy_time - snap["osd_busy"].get(o.addr, 0.0) for o in cluster.osds
        )
        report.storage_cpu_pct = 100.0 * osd_busy / (len(cluster.osds) * 8 * window)
        return [o.addr for o in cluster.osds], [m.addr for m in cluster.mds_list]

    # -- fault surface -------------------------------------------------------
    def _nodes(self) -> dict:
        return {node.addr: node for node in self.cluster.mds_list + self.cluster.osds}

    def server_node_ids(self) -> list[str]:
        return [str(mds.addr) for mds in self.cluster.mds_list]

