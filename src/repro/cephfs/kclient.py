"""The CephFS kernel client.

Holding a capability lets the client serve reads of an inode from its
local cache without contacting the MDS — the reason the default CephFS
setup posts high aggregate numbers while each MDS serves very few requests
(Figs. 5, 6).  ``SkipKCache`` disables the cache to expose the true MDS
throughput (Section V-A-b3).
"""

from __future__ import annotations

from typing import Optional

from ..errors import HostUnreachableError, NoNamenodeError
from ..fsclient import FsClient
from ..net.network import Message, Network
from ..net.server import Server
from ..sim import Environment
from ..types import AzId, NodeAddress, OpType
from .config import CephConfig
from .mds import MdsInode
from .subtree import SubtreePartitioner

__all__ = ["CephClient"]

_READ_OPS = frozenset({OpType.READ_FILE, OpType.STAT})


class CephClient(FsClient, Server):
    """A mounted CephFS client on one simulated host.

    The MDSs' capability revocations are delivered to it.
    """

    _span_name = "kclient.op"

    def __init__(
        self,
        env: Environment,
        network: Network,
        addr: NodeAddress,
        az: AzId,
        mds_addrs,
        partitioner: SubtreePartitioner,
        config: CephConfig,
    ):
        super().__init__(env, network, addr, az)
        self.mds_addrs = list(mds_addrs)
        self.partitioner = partitioner
        self.config = config
        self.cache: dict[str, MdsInode] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def _on_message(self, msg: Message) -> None:
        if msg.kind == "cap_revoke":
            self.cache.pop(msg.payload, None)

    def _mds_for(self, path: str, op: Optional[OpType] = None) -> NodeAddress:
        partitioner = self.partitioner
        rank = partitioner.dir_rank(path) if op is OpType.LIST_DIR else partitioner.rank_of(path)
        return self.mds_addrs[rank % len(self.mds_addrs)]

    # -------------------------------------------------------------- operations
    def _op_body(self, op: OpType, kwargs, span):
        path = kwargs.get("path") or kwargs.get("src")
        cache_key = path if op in _READ_OPS else None
        if self.config.kclient_cache and cache_key is not None and cache_key in self.cache:
            # Served entirely by the kernel cache under a valid capability.
            # Snapshot the value first: a revocation may land mid-read.
            cached = self.cache[cache_key]
            self.cache_hits += 1
            if span is not None:
                span.tags["cache_hit"] = True
            yield self.env.timeout(self.config.kclient_hit_cost_ms)
            return cached
        if span is not None:
            span.tags["cache_hit"] = False
        mds = self._mds_for(path if path else "/", op)
        if not self.config.kclient_cache and path:
            # Without the kernel dentry cache every path component needs its
            # own MDS lookup before the actual operation (SkipKCache).
            components = [c for c in path.split("/") if c][:-1]
            prefix = ""
            for name in components:
                prefix += "/" + name
                lookup_mds = self._mds_for(prefix)
                try:
                    yield self.network.call(
                        self.addr,
                        lookup_mds,
                        "mds_op",
                        (OpType.STAT, {"path": prefix}, self.addr),
                        size=self.config.client_request_bytes,
                        parent_span=span,
                    )
                except HostUnreachableError as exc:
                    raise NoNamenodeError(f"MDS {lookup_mds} unreachable: {exc}") from exc
                except Exception:
                    pass  # missing ancestors surface on the real op
        try:
            result = yield self.network.call(
                self.addr, mds, "mds_op", (op, kwargs, self.addr),
                size=self.config.client_request_bytes,
                parent_span=span,
            )
        except HostUnreachableError as exc:
            raise NoNamenodeError(f"MDS {mds} unreachable: {exc}") from exc
        if cache_key is not None:
            self.cache_misses += 1
            if self.config.kclient_cache:
                self.cache[cache_key] = result
        elif path is not None:
            self.cache.pop(path, None)
            dst = kwargs.get("dst")
            if dst is not None:
                self.cache.pop(dst, None)
        return result

    _request_loop = _op_body

    def create(self, path: str, data: bytes = b""):
        return self.run(OpType.CREATE_FILE, {"path": path, "data": data})
