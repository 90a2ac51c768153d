"""Heartbeats, failure detection and the partition/arbitration protocol.

NDB datanodes heartbeat in a ring; a node that misses
``heartbeat_misses_for_failure`` intervals from its predecessor starts the
failure protocol (Section II-B2).  If the suspect is truly down, surviving
node-group members promote their backup fragments; if the suspect is alive
but unreachable (a network partition), the detector's connected component
asks the arbitrator for permission to continue and shuts down when denied
or when the arbitrator is unreachable (Section IV-A2).

Simplification vs. real NDB: agreement among survivors uses the simulator's
ground-truth reachability instead of a gossip round; the outcome (which
side survives, who aborts what) is identical.
"""

from __future__ import annotations

from ..net.network import Message
from ..types import NodeAddress
from .messages import ArbitrationReq, HeartbeatMsg

__all__ = ["HeartbeatProtocol"]


class HeartbeatProtocol:
    """Drives heartbeat rings and failure detection for one NDB cluster."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.env = cluster.env
        self.network = cluster.network
        self.config = cluster.config
        # Suspicions already being handled (avoid duplicate protocols).
        self._handling: set[NodeAddress] = set()

    def watch(self, *datanodes) -> None:
        """Put ``datanodes`` in the ring: each heartbeats and checks its predecessor."""
        for datanode in datanodes:
            datanode.spawn_loop("hb-send", self._sender, datanode)
            datanode.spawn_loop("hb-check", self._checker, datanode)

    # -- ring topology ---------------------------------------------------------
    def _ring(self) -> list[NodeAddress]:
        # Membership is what the cluster *believes*: a crashed node stays in
        # the ring until the failure protocol declares it down — that's what
        # its successor's missed heartbeats are for.
        return [
            dn.addr
            for dn in self.cluster.datanodes.values()
            if self.cluster.partition_map.is_up(dn.addr)
        ]

    def _successor(self, addr: NodeAddress) -> NodeAddress | None:
        ring = self._ring()
        if addr not in ring or len(ring) < 2:
            return None
        return ring[(ring.index(addr) + 1) % len(ring)]

    def _predecessor(self, addr: NodeAddress) -> NodeAddress | None:
        ring = self._ring()
        if addr not in ring or len(ring) < 2:
            return None
        return ring[(ring.index(addr) - 1) % len(ring)]

    # -- processes -----------------------------------------------------------
    def _sender(self, datanode):
        interval = self.config.heartbeat_interval_ms
        while True:
            successor = self._successor(datanode.addr)
            if successor is not None:
                self.network.send(
                    Message(
                        src=datanode.addr,
                        dst=successor,
                        kind="heartbeat",
                        payload=HeartbeatMsg(sender=datanode.addr),
                        size=64,
                    )
                )
            yield self.env.timeout(interval)

    def _checker(self, datanode):
        interval = self.config.heartbeat_interval_ms
        deadline = interval * self.config.heartbeat_misses_for_failure
        watch_since: dict[NodeAddress, float] = {}
        while True:
            yield self.env.timeout(interval)
            predecessor = self._predecessor(datanode.addr)
            if predecessor is None:
                continue
            if predecessor not in watch_since:
                watch_since.clear()
                watch_since[predecessor] = self.env.now
            last = datanode.last_heartbeat_from.get(predecessor, watch_since[predecessor])
            last = max(last, watch_since[predecessor])
            if self.env.now - last > deadline:
                self._suspect(datanode, predecessor)
                watch_since.clear()

    # -- failure / partition protocol -------------------------------------------
    def _suspect(self, detector, suspect: NodeAddress) -> None:
        if suspect in self._handling or not self.cluster.partition_map.is_up(suspect):
            return
        if not self.network.is_up(suspect):
            # Crash failure: run the node-failure protocol (synchronous).
            self._handling.add(suspect)
            try:
                self.cluster.on_node_failed(suspect)
            finally:
                self._handling.discard(suspect)
            return
        # Suspect is alive but unreachable: network partition.  The suspect
        # stays in ``_handling`` for the whole arbitration round trip so the
        # checker (which keeps missing heartbeats every interval) does not
        # pile up duplicate protocols for the same suspicion.
        self._handling.add(suspect)
        self.env.process(
            self._guarded_partition_protocol(detector, suspect),
            name=f"{detector.addr}:arbitration",
        )

    def _guarded_partition_protocol(self, detector, suspect: NodeAddress):
        try:
            yield from self._partition_protocol(detector)
        finally:
            self._handling.discard(suspect)

    def _component_of(self, detector) -> list:
        component = []
        for dn in self.cluster.datanodes.values():
            if not dn.running:
                continue
            if dn.addr == detector.addr or self.network.reachable(detector.addr, dn.addr):
                component.append(dn)
        return component

    def _component_viable(self, component_addrs: set[NodeAddress]) -> bool:
        pmap = self.cluster.partition_map
        for group in pmap.node_groups:
            if not any(member in component_addrs for member in group):
                return False
        return True

    def _partition_protocol(self, detector):
        component = self._component_of(detector)
        component_addrs = {dn.addr for dn in component}
        if not self._component_viable(component_addrs):
            # Cannot form a complete cluster: shut down gracefully.
            self.cluster.shutdown_component(component_addrs, "incomplete component")
            return
        arbitrator = self.cluster.arbitrator()
        granted = False
        if arbitrator is not None:
            try:
                granted = yield self.network.call(
                    detector.addr,
                    arbitrator.addr,
                    "arbitration_req",
                    ArbitrationReq(
                        requester=detector.addr, component=frozenset(component_addrs)
                    ),
                    size=128,
                )
            except Exception:
                granted = False
        if not granted:
            # Failed to contact the arbitrator (or denied): assume we are on
            # the losing side of the partition and shut down (Section IV-A2).
            self.cluster.shutdown_component(component_addrs, "lost arbitration")
            return
        # We won arbitration: declare the unreachable nodes failed.
        for dn in self.cluster.datanodes.values():
            if dn.addr not in component_addrs and self.cluster.partition_map.is_up(dn.addr):
                self.cluster.on_node_failed(dn.addr)
