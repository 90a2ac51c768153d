"""Resource-utilization reports (Figures 10-13)."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ResourceReport", "AzUtilization", "add_network_rates"]

MB = 1000.0  # bytes/ms -> MB/s divisor


@dataclass
class AzUtilization:
    """One AZ's network rates over a measurement window.

    Read + write MB/s per node of the AZ's storage and server tiers (the
    same convention as the per-node fields of :class:`ResourceReport`), so
    AZ rows are directly comparable however many nodes each AZ hosts.
    """

    az: int
    storage_net_mb_s: float = 0.0
    server_net_mb_s: float = 0.0


@dataclass
class ResourceReport:
    """Averages over one measurement window.

    *storage* nodes are NDB datanodes (HopsFS) or OSDs (CephFS);
    *server* nodes are namenodes (HopsFS) or MDSs (CephFS).
    CPU is percent of the host's cores; network/disk are MB/s per node.
    """

    window_ms: float = 0.0
    storage_cpu_pct: float = 0.0
    server_cpu_pct: float = 0.0
    storage_net_read_mb_s: float = 0.0
    storage_net_write_mb_s: float = 0.0
    server_net_read_mb_s: float = 0.0
    server_net_write_mb_s: float = 0.0
    storage_disk_write_mb_s: float = 0.0
    # HopsFS only: NDB per-thread-type CPU percent (Figure 11).
    ndb_thread_cpu_pct: dict[str, float] = field(default_factory=dict)
    cross_az_mb: float = 0.0
    intra_az_mb: float = 0.0
    # Per-AZ aggregation (az -> AzUtilization), alongside the per-node
    # averages above; Figures 12/13 use it to report AZ skew.
    per_az: dict[int, AzUtilization] = field(default_factory=dict)

    def az_skew(self, tier: str = "storage") -> float:
        """Max/mean ratio of per-AZ network rates (1.0 = perfectly even)."""
        if not self.per_az:
            return 1.0
        attr = "storage_net_mb_s" if tier == "storage" else "server_net_mb_s"
        rates = [getattr(u, attr) for u in self.per_az.values()]
        mean = sum(rates) / len(rates)
        if mean <= 0:
            return 1.0
        return max(rates) / mean


def _tier(delta, addrs, az_of, window_ms: float):
    """One pass over a tier's nodes in a traffic delta: the tier's read and
    write MB/s per node, and ``{az: read + write MB/s per node of the AZ}``.
    Byte sums are ints, each divided ``/ nodes / window_ms / MB``."""
    by_az: dict[int, list] = {}  # az -> [nodes, received, sent]
    received = sent = 0
    for addr in addrs:
        acc = by_az.setdefault(az_of(addr), [0, 0, 0])
        acc[0] += 1
        node = delta.node.get(addr)
        if node is not None:
            acc[1] += node.received
            acc[2] += node.sent
            received += node.received
            sent += node.sent
    n = max(1, len(addrs))
    rates = {az: r / k / window_ms / MB + s / k / window_ms / MB
             for az, (k, r, s) in by_az.items()}
    return received / n / window_ms / MB, sent / n / window_ms / MB, rates


def add_network_rates(report: ResourceReport, delta, storage, servers, az_of) -> None:
    """Fill ``report``'s network fields from ``delta``, the
    :class:`~repro.net.traffic.TrafficMatrix` of its window (whose
    ``window_ms`` must be positive): per-node rates of the ``storage`` and
    ``servers`` tiers, the per-AZ rates (``az_of`` maps an address to its
    AZ, sorted by AZ id) and the cross-/intra-AZ volume."""
    window = report.window_ms
    report.storage_net_read_mb_s, report.storage_net_write_mb_s, storage_az = _tier(
        delta, storage, az_of, window)
    report.server_net_read_mb_s, report.server_net_write_mb_s, server_az = _tier(
        delta, servers, az_of, window)
    report.per_az = {
        az: AzUtilization(az, storage_az.get(az, 0.0), server_az.get(az, 0.0))
        for az in sorted(storage_az.keys() | server_az.keys())
    }
    report.cross_az_mb = delta.cross_az_bytes / 1e6
    report.intra_az_mb = delta.intra_az_bytes / 1e6
