"""The one server runtime: a delivery handler, named loops, a lifecycle.

Every daemon of the three layers (NDB datanodes and management nodes,
namenodes, block datanodes) and of the CephFS baseline (MDS, OSD, kernel
client) is a :class:`Server`.  The base enforces what used to be a per-class
convention: across any crash/restart sequence an address has exactly one
handler and each named background loop runs at most once.  Subclasses
supply ``_on_message`` and the hooks; they never touch ``Network.register``,
``Process.is_alive`` or ``Network.set_down``/``set_up``.

Delivery is one call: ``start`` registers ``_on_message`` with the network,
which calls it from the delivery of each request.  Before the first
``start`` the address has no handler, so a request to it is dropped and its
RPC fails.

Crash model: ``shutdown`` takes the address off the network (mail delivered
to it is dropped, RPCs awaiting it fail) and clears ``running``.  Background
loops are not interrupted — each is written ``while self.running: ...`` so
it exits at its next wake-up.  A ``restart`` that beats that wake-up
therefore finds the old loop alive and must not start a second one: that is
``spawn_once``.  In-flight request work is the subclass's to end in
``_on_shutdown``: a namenode closes (``Task.close`` / ``Process.close``)
every task of the life that crashed, so none of it runs on after the crash
or parks forever on a reply addressed to the dead process.
"""

from __future__ import annotations

from ..sim import Environment, Process
from ..types import AzId, NodeAddress
from .network import Message, Network

__all__ = ["Server"]


class Server:
    """One simulated daemon: an address, its handler and its processes."""

    def __init__(self, env: Environment, network: Network, addr: NodeAddress, az: AzId):
        self.env = env
        self.network = network
        self.addr = addr
        self.az = az
        self.running = False
        self._loops: dict[str, Process] = {}

    def spawn_once(self, name: str, gen_fn, *args) -> Process:
        """Run ``gen_fn(*args)`` as ``<addr>:<name>`` unless that loop is alive."""
        proc = self._loops.get(name)
        if proc is None or not proc.is_alive:
            proc = self._loops[name] = self.env.process(
                gen_fn(*args), name=f"{self.addr}:{name}"
            )
        return proc

    # ------------------------------------------------------------------ life
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.network.register(self.addr, self._on_message)
        self._on_start()

    def shutdown(self) -> None:
        """Crash-stop: volatile state is the subclass's to drop or keep."""
        if not self.running:
            return
        self.running = False
        self.network.set_down(self.addr)
        self._on_shutdown()

    def restart(self) -> None:
        if self.running:
            return
        self.network.set_up(self.addr)
        self._on_restart()
        self.start()

    # ----------------------------------------------------------------- hooks
    def _on_message(self, msg: Message) -> None:
        """Handle one delivered request without blocking: start a task or
        act inline."""
        raise NotImplementedError

    def _on_start(self) -> None:
        """Spawn this server's background loops (``spawn_once``), in order."""

    def _on_shutdown(self) -> None:
        """Settle what a crash leaves behind outside this process."""

    def _on_restart(self) -> None:
        """Reset the state that died with the process, before serving again."""
