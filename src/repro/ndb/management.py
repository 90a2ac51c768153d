"""NDB management nodes and split-brain arbitration.

A management node's role during network partitions (Section IV-A2): the
arbitrator "accepts the first set of database nodes to contact it and tells
the remaining set to shutdown"; nodes that cannot contact the arbitrator
assume they are partitioned and shut down gracefully.
"""

from __future__ import annotations

from typing import Optional

from ..net.network import Message, Network
from ..net.server import Server
from ..sim import Environment
from ..types import AzId, NodeAddress
from .messages import ArbitrationReq

__all__ = ["ManagementNode"]


class ManagementNode(Server):
    """One ndb_mgmd process; at most one is the active arbitrator."""

    def __init__(self, env: Environment, network: Network, addr: NodeAddress, az: AzId):
        super().__init__(env, network, addr, az)
        # Arbitration state: the component granted the right to continue in
        # the current partition epoch.
        self.granted_component: Optional[frozenset[NodeAddress]] = None
        self.arbitration_epoch = 0
        self.grants = 0
        self.denials = 0

    def reset_arbitration(self) -> None:
        """Called when partitions heal; the next partition is a new epoch."""
        self.granted_component = None
        self.arbitration_epoch += 1

    # A restarted mgmd arbitrates from a fresh epoch.
    _on_restart = reset_arbitration

    def _on_message(self, msg: Message) -> None:
        if msg.kind == "arbitration_req":
            self._arbitrate(msg)

    def _arbitrate(self, msg: Message) -> None:
        req: ArbitrationReq = msg.payload
        if self.granted_component is None:
            # First component to reach the arbitrator wins.
            self.granted_component = frozenset(req.component)
            self.grants += 1
            self.network.reply(msg, payload=True)
            return
        if req.requester in self.granted_component:
            self.grants += 1
            self.network.reply(msg, payload=True)
        else:
            self.denials += 1
            self.network.reply(msg, payload=False)
