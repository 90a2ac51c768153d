"""Ceph object storage daemons (OSDs).

OSDs store the file data *and* the metadata: the MDS journal and metadata
objects are RADOS objects replicated ``osd_replication`` ways.  For the
metadata benchmarks the dominant OSD load is the MDS journal stream
(Fig. 12d), which is what this model reproduces.
"""

from __future__ import annotations

from ..errors import FsError
from ..net.network import Message, Network
from ..net.server import Server
from ..sim import Environment
from ..sim.resources import CorePool, Disk
from ..types import AzId, NodeAddress

__all__ = ["Osd"]


class Osd(Server):
    """One OSD process: a disk plus a small CPU for request handling.

    Stored objects are on disk: they survive a crash and restart.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        addr: NodeAddress,
        az: AzId,
        disk_bandwidth_bytes_per_ms: float,
        cpu_cost_ms: float,
    ):
        super().__init__(env, network, addr, az)
        self.cpu_cost_ms = cpu_cost_ms
        self.cpu = CorePool(env, 4, name=f"{addr}:cpu")
        self.disk = Disk(env, disk_bandwidth_bytes_per_ms, name=f"{addr}:disk")
        self.objects: dict[str, int] = {}

    def _on_message(self, msg: Message) -> None:
        self._requests[msg] = self.env.spawn(self._handle(msg))

    def _handle(self, msg: Message):
        obs = self.env.obs
        span = None if obs is None else obs.tracer.start(
            f"osd.{msg.kind}", parent=msg.extra.get("span_id"),
            host=str(self.addr), az=self.az,
        )
        try:
            yield self.cpu.submit(self.cpu_cost_ms)
            if msg.kind == "osd_write":
                name, nbytes = msg.payload
                yield self.disk.write(nbytes)
                self.objects[name] = self.objects.get(name, 0) + nbytes
                self.network.reply(msg, True, size=64)
            elif msg.kind == "osd_read":
                name = msg.payload
                nbytes = self.objects.get(name)
                if nbytes is None:
                    self.network.reply(msg, FsError(f"no object {name}"), ok=False)
                    return
                yield self.disk.read(nbytes)
                self.network.reply(msg, nbytes, size=max(64, nbytes))
            else:
                raise FsError(f"{self.addr}: unknown OSD message {msg.kind!r}")
        finally:
            if span is not None:
                obs.tracer.finish(span)
            requests = self._requests
            if msg in requests:  # else its life's table is gone
                del requests[msg]
