"""Block-storage datanodes (DNs): pipelines, heartbeats, block transfer.

Only large files (>128 KB) touch this layer; small files live inline in
NDB (Section II-A3).  Writes replicate through a pipeline
client → DN1 → DN2 → DN3 with acknowledgements flowing back.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..errors import FsError, HostUnreachableError
from ..net.network import Message, Network
from ..net.server import Server
from ..sim import Environment
from ..sim.resources import Disk
from ..types import AzId, NodeAddress

__all__ = ["BlockStoreDatanode", "WriteBlockReq", "ReadBlockReq", "CopyBlockReq"]


@dataclass
class WriteBlockReq:
    block_id: int
    nbytes: int
    pipeline: tuple[NodeAddress, ...]
    hop: int = 0


@dataclass
class ReadBlockReq:
    block_id: int


@dataclass
class CopyBlockReq:
    """Leader-initiated re-replication: copy a local block to ``target``."""

    block_id: int
    target: NodeAddress


class BlockStoreDatanode(Server):
    """One DN process of the block storage layer."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        addr: NodeAddress,
        az: AzId,
        namenode_addrs,
        heartbeat_interval_ms: float = 1000.0,
        disk_bandwidth_bytes_per_ms: float = 400_000.0,
    ):
        super().__init__(env, network, addr, az)
        self.namenode_addrs = list(namenode_addrs)
        self.heartbeat_interval_ms = heartbeat_interval_ms
        self.disk = Disk(env, disk_bandwidth_bytes_per_ms, name=f"{addr}:disk")
        # block_id -> size; on disk, so a restart finds them again.
        self.blocks: dict[int, int] = {}

    def _on_start(self) -> None:
        self.spawn_loop("dn-hb", self._heartbeat_loop)

    # -- processes -----------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        self._requests[msg] = self.env.spawn(self._handle(msg))

    def _handle(self, msg: Message):
        try:
            if msg.kind == "write_block":
                yield from self._write_block(msg)
            elif msg.kind == "read_block":
                yield from self._read_block(msg)
            elif msg.kind == "copy_block":
                yield from self._copy_block(msg)
            else:
                raise FsError(f"{self.addr}: unknown DN message {msg.kind!r}")
        finally:
            requests = self._requests
            if msg in requests:  # else its life's table is gone
                del requests[msg]

    def _heartbeat_loop(self):
        while True:
            for nn in self.namenode_addrs:
                self.network.send(
                    Message(
                        src=self.addr,
                        dst=nn,
                        kind="dn_heartbeat",
                        payload=(self.addr, self.az, tuple(self.blocks)),
                        size=128 + 8 * len(self.blocks),
                    )
                )
            yield self.env.timeout(self.heartbeat_interval_ms)

    # -- handlers ----------------------------------------------------------------
    def _write_block(self, msg: Message):
        req: WriteBlockReq = msg.payload
        yield self.disk.write(req.nbytes)
        self.blocks[req.block_id] = req.nbytes
        if req.hop + 1 < len(req.pipeline):
            nxt = WriteBlockReq(
                block_id=req.block_id,
                nbytes=req.nbytes,
                pipeline=req.pipeline,
                hop=req.hop + 1,
            )
            try:
                yield self.network.call(
                    self.addr,
                    req.pipeline[req.hop + 1],
                    "write_block",
                    nxt,
                    size=req.nbytes,
                )
            except HostUnreachableError as exc:
                self.network.reply(msg, FsError(f"pipeline broke: {exc}"), ok=False)
                return
        self.network.reply(msg, True, size=64)

    def _read_block(self, msg: Message):
        req: ReadBlockReq = msg.payload
        size = self.blocks.get(req.block_id)
        if size is None:
            self.network.reply(msg, FsError(f"block {req.block_id} not here"), ok=False)
            return
        yield self.disk.read(size)
        self.network.reply(msg, size, size=size)

    def _copy_block(self, msg: Message):
        req: CopyBlockReq = msg.payload
        size = self.blocks.get(req.block_id)
        if size is None:
            self.network.reply(msg, FsError(f"block {req.block_id} not here"), ok=False)
            return
        yield self.disk.read(size)
        transfer = WriteBlockReq(
            block_id=req.block_id, nbytes=size, pipeline=(req.target,), hop=0
        )
        try:
            yield self.network.call(self.addr, req.target, "write_block", transfer, size=size)
        except HostUnreachableError as exc:
            self.network.reply(msg, FsError(f"copy failed: {exc}"), ok=False)
            return
        self.network.reply(msg, True, size=64)
