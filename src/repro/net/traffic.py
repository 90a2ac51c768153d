"""Traffic accounting: per-AZ-pair and per-node byte counters.

Figures 12 and 13 of the paper report average network read/write per
metadata-storage node and per metadata server; Section V-E's argument for
Read Backup is about minimizing cross-AZ bytes.  Every message the network
delivers is accounted: ``Network`` counts it on the message's route, and
each read of ``Network.traffic`` sums those routes into a new
:class:`TrafficMatrix`, a plain value that later deliveries leave as it is.
A measurement window keeps the one read at its start and takes the
:meth:`~TrafficMatrix.delta_since` of the one at its end.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..types import AzId, NodeAddress

__all__ = ["TrafficMatrix", "NodeTraffic"]


@dataclass
class NodeTraffic:
    """Per-node NIC counters (bytes)."""

    sent: int = 0
    received: int = 0


@dataclass
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

    @classmethod
    def of_routes(cls, routes) -> "TrafficMatrix":
        """The matrix of per-route counters.

        ``routes`` are in the order of their first delivery, each with
        ``src``, ``dst``, ``az_pair``, ``bytes`` and ``messages``; the keys
        of ``node`` and ``az_pair_bytes`` come out in the order
        :meth:`record` would have created them.
        """
        matrix = cls()
        pairs, node = matrix.az_pair_bytes, matrix.node
        for route in routes:
            pairs[route.az_pair] += route.bytes
            node[route.src].sent += route.bytes
            node[route.dst].received += route.bytes
            matrix.messages += route.messages
        return matrix

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

    def delta_since(self, snap: "TrafficMatrix") -> "TrafficMatrix":
        """Counters accumulated since ``snap``, an earlier read, was taken."""
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
