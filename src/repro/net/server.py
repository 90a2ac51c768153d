"""The one server runtime: a delivery handler, named loops, a lifecycle.

Every daemon of the three layers (NDB datanodes and management nodes,
namenodes, block datanodes) and of the CephFS baseline (MDS, OSD, kernel
client) is a :class:`Server`.  The base enforces what used to be a per-class
convention: across any crash/restart sequence an address has exactly one
handler and each named background loop runs once per life.  Subclasses
supply ``_on_message`` and the hooks; they never touch ``Network.register``,
``Process.is_alive`` or ``Network.set_down``/``set_up``.

Delivery is one call: ``start`` registers ``_on_message`` with the network,
which calls it from the delivery of each request.  Before the first
``start`` the address has no handler, so a request to it is dropped and its
RPC fails.

Crash model (crash-stop): a life of the process runs from ``start`` to
``shutdown``, and a crash ends everything the life started.  Each life
keeps two tables: ``_requests``, request message -> the task serving it
(None while the request is a callback chain), and ``_loops``, key -> its
background work (``spawn_loop``'s named loops, and whatever else with a
``close`` a subclass files there).  ``shutdown`` takes the address off the
network, which drops the RPCs this host issued (no reply can reach them)
and fails those awaiting it, and then closes (``Task.close`` /
``Process.close``) everything in both tables: none of it runs on, and a
closed task still waiting ends at its wake-up as if its generator
returned there.  A ``finally`` in a request task or loop must therefore
not yield.  A ``restart`` starts every loop afresh.  A request task
removes itself from its life's table when it ends; one whose life's table
is gone removes nothing.  A callback chain (every MDS and OSD request, a
namenode's until its ``_serve`` task) has nothing to close: each stage
runs where such a task would resume and first ends a request its life's
table no longer holds, as the closed task would have ended there.
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
        self._requests: dict = {}  # this life's requests (see above)
        self._loops: dict = {}  # this life's background work (see above)

    def spawn_loop(self, name: str, gen_fn, *args) -> Process:
        """Run ``gen_fn(*args)`` as ``<addr>:<name>`` until this life ends."""
        proc = self._loops[name] = self.env.process(gen_fn(*args), name=f"{self.addr}:{name}")
        return proc

    # ------------------------------------------------------------------ life
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.network.register(self.addr, self._on_message)
        self._on_start()

    def shutdown(self) -> None:
        """Crash-stop: the life's tasks and loops end here; volatile state
        is the subclass's to drop or keep."""
        if not self.running:
            return
        self.running = False
        self.network.set_down(self.addr)
        requests, self._requests = self._requests, {}
        loops, self._loops = self._loops, {}
        for task in (*requests.values(), *loops.values()):
            if task is not None:
                task.close()
        self._on_shutdown()

    def restart(self) -> None:
        if self.running:
            return
        self.network.set_up(self.addr)
        self._on_restart()
        self.start()

    # ----------------------------------------------------------------- hooks
    def _on_message(self, msg: Message) -> None:
        """Handle one delivered request without blocking: start a task (filed
        in ``_requests``) or act inline."""
        raise NotImplementedError

    def _on_start(self) -> None:
        """Spawn this server's background loops (``spawn_loop``), in order."""

    def _on_shutdown(self) -> None:
        """Settle what a crash leaves behind outside this process."""

    def _on_restart(self) -> None:
        """Reset the state that died with the process, before serving again."""
