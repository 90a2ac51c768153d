"""Ceph object storage daemons (OSDs).

OSDs store the file data *and* the metadata: the MDS journal and metadata
objects are RADOS objects replicated ``osd_replication`` ways.  For the
metadata benchmarks the dominant OSD load is the MDS journal stream
(Fig. 12d), which is what this model reproduces: an OSD serves object
writes (``osd_write``); nothing in the model reads an object back.
"""

from __future__ import annotations

from functools import partial

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
        if msg.kind != "osd_write":
            raise FsError(f"{self.addr}: unknown OSD message {msg.kind!r}")
        self._requests[msg] = None
        self.env.call_soon(self._begin, msg)

    # A write is a callback chain to its end, as an MDS request is:
    # ``_begin`` opens its span and queues it on the CPU, ``_paid`` queues
    # the disk transfer, and its completion runs ``_written``, which ends
    # the chain where the task would end.  A stage whose request its life's
    # table no longer holds (a crash dropped it) does nothing but end it.
    def _begin(self, msg: Message) -> None:
        if msg not in self._requests:
            return self._end(None)
        obs = self.env.obs
        span = None if obs is None else obs.tracer.start(
            f"osd.{msg.kind}", parent=msg.extra.get("span_id"), host=str(self.addr), az=self.az)
        self.cpu.call(self.cpu_cost_ms, self._paid, (msg, span))

    def _paid(self, arg) -> None:
        msg, span = arg
        if msg not in self._requests:
            return self._end(span)
        self.disk.write(msg.payload[1]).add_callback(partial(self._written, msg, span))

    def _written(self, msg: Message, span, _event) -> None:
        requests = self._requests
        if msg in requests:
            del requests[msg]
            name, nbytes = msg.payload
            self.objects[name] = self.objects.get(name, 0) + nbytes
            self.network.reply(msg, True, size=64)
        self._end(span)

    def _end(self, span) -> None:
        """End a chain whose request is out of its life's table: its span
        closed, then the task end."""
        if span is not None:
            self.env.obs.tracer.finish(span)
        self.env.end_task()
