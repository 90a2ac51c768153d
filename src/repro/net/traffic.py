"""Traffic accounting: per-AZ-pair and per-node byte counters.

Figures 12 and 13 of the paper report average network read/write per
metadata-storage node and per metadata server; Section V-E's argument for
Read Backup is about minimizing cross-AZ bytes.  Every message the network
delivers is accounted: ``Network`` counts it on the message's route, and
``Network.traffic`` is a :class:`RouteTraffic`, a live matrix over those
routes.  Snapshots and deltas are standalone :class:`TrafficMatrix` records.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..types import AzId, NodeAddress

__all__ = ["TrafficMatrix", "NodeTraffic", "RouteTraffic"]


@dataclass
class NodeTraffic:
    """Per-node NIC counters (bytes)."""

    sent: int = 0
    received: int = 0


@dataclass(eq=False)
class TrafficMatrix:
    """Aggregated byte counters for one simulation run."""

    az_pair_bytes: dict[tuple[AzId, AzId], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    node: dict[NodeAddress, NodeTraffic] = field(
        default_factory=lambda: defaultdict(NodeTraffic)
    )
    messages: int = 0

    def record(self, src: NodeAddress, src_az: AzId, dst: NodeAddress, dst_az: AzId, nbytes: int) -> None:
        self.az_pair_bytes[(src_az, dst_az)] += nbytes
        self.node[src].sent += nbytes
        self.node[dst].received += nbytes
        self.messages += 1

    def __eq__(self, other: object) -> bool:
        # By value, so a live view equals the standalone matrix it reads as.
        if not isinstance(other, TrafficMatrix):
            return NotImplemented
        return (self.messages == other.messages and self.az_pair_bytes == other.az_pair_bytes
                and self.node == other.node)

    # -- aggregate views ----------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(self.az_pair_bytes.values())

    @property
    def cross_az_bytes(self) -> int:
        return sum(v for (a, b), v in self.az_pair_bytes.items() if a != b)

    @property
    def intra_az_bytes(self) -> int:
        return sum(v for (a, b), v in self.az_pair_bytes.items() if a == b)

    def cross_az_fraction(self) -> float:
        total = self.total_bytes
        return self.cross_az_bytes / total if total else 0.0

    def node_bytes(self, address: NodeAddress) -> NodeTraffic:
        return self.node[address]

    def snapshot(self) -> "TrafficSnapshot":
        """Freeze current counters (window start for utilization figures)."""
        return TrafficSnapshot(
            az_pair_bytes=dict(self.az_pair_bytes),
            node={addr: NodeTraffic(t.sent, t.received) for addr, t in self.node.items()},
            messages=self.messages,
        )

    def delta_since(self, snap: "TrafficSnapshot") -> "TrafficMatrix":
        """Counters accumulated since ``snap`` was taken."""
        delta = TrafficMatrix()
        for key, value in self.az_pair_bytes.items():
            diff = value - snap.az_pair_bytes.get(key, 0)
            if diff:
                delta.az_pair_bytes[key] = diff
        for addr, tr in self.node.items():
            base = snap.node.get(addr, NodeTraffic())
            sent, received = tr.sent - base.sent, tr.received - base.received
            if sent or received:
                delta.node[addr] = NodeTraffic(sent, received)
        delta.messages = self.messages - snap.messages
        return delta


class RouteTraffic(TrafficMatrix):
    """A read-only :class:`TrafficMatrix` over per-route counters.

    ``routes`` is the network's list of routes in the order of their first
    delivery; each carries ``src``, ``dst``, ``az_pair``, ``bytes`` and
    ``messages``.  Every read builds the matrix from them afresh, with the
    keys of ``node`` and ``az_pair_bytes`` in the order
    :meth:`TrafficMatrix.record` would have created them.
    """

    def __init__(self, routes: list):
        self._routes = routes

    @property
    def az_pair_bytes(self) -> dict[tuple[AzId, AzId], int]:
        pairs = defaultdict(int)
        for route in self._routes:
            pairs[route.az_pair] += route.bytes
        return pairs

    @property
    def node(self) -> dict[NodeAddress, NodeTraffic]:
        node = defaultdict(NodeTraffic)
        for route in self._routes:
            node[route.src].sent += route.bytes
            node[route.dst].received += route.bytes
        return node

    @property
    def messages(self) -> int:
        return sum(route.messages for route in self._routes)


@dataclass
class TrafficSnapshot:
    az_pair_bytes: dict[tuple[AzId, AzId], int]
    node: dict[NodeAddress, NodeTraffic]
    messages: int
