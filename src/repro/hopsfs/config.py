"""Metadata-serving-layer configuration and service costs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from ..types import OpType
from .elastic import ElasticConfig
from .groupcommit import AsyncCommitConfig
from .listcache import ListingCacheConfig
from .robust import RobustConfig

__all__ = ["HopsFsConfig"]


@dataclass(frozen=True)
class HopsFsConfig:
    """Namenode / client configuration.

    ``op_cost_*`` are per-operation CPU service times on the namenode's
    handler pool (ms), calibrated so a single 32-core NN saturates around
    the paper's per-NN throughput (~27k ops/s at 60 NNs aggregate 1.6M).
    The granular-locking design lets the NN use all cores (Fig. 10b).
    """

    nn_cores: int = 32
    op_cost_read_ms: float = 1.05  # stat / readFile / listDir handler work
    op_cost_mutation_ms: float = 1.55  # create / mkdir / delete / rename
    election_period_ms: float = 2000.0  # leader election round (paper: 2s)
    election_missed_rounds: int = 2
    client_request_bytes: int = 256
    client_response_bytes: int = 512
    # Block storage layer.
    dn_heartbeat_interval_ms: float = 1000.0
    dn_missed_heartbeats: int = 3
    dn_disk_bandwidth_bytes_per_ms: float = 400_000.0
    # Clients stick to a metadata server until it fails.
    client_max_failovers: int = 4
    # Reject mutations until the first election round has completed
    # (HDFS-style startup safemode).  Off by default: benchmarks preload
    # their namespace and start hot.
    safemode_on_startup: bool = False
    # The four opt-in serving paths: each field is the switch of one part
    # the namenode, client and deployment build once (DESIGN §4 "Opt-in
    # paths").  None builds the part's off value, which does nothing: the
    # default runs the pinned golden schedules.
    # Gray-failure hardening (timeouts, deadlines, hedging, retry ids,
    # admission control) of the client's one request loop.  None = the
    # fail-stop client; chaos targets opt in.
    robust: Optional[RobustConfig] = None
    # Async group commit (batched flushes, early acks with a durability
    # horizon).  None = synchronous commit; experiments and chaos targets
    # opt in.
    async_commit: Optional[AsyncCommitConfig] = None
    # Elastic serving tier (runtime add/decommission, client membership
    # refresh, load-driven autoscaler).  None = a fixed pool; the churn
    # scenarios opt in.
    elastic: Optional[ElasticConfig] = None
    # Pre-materialized listing/attr cache with NDB-changelog invalidation.
    # None = every read pays the full transaction; listing experiments and
    # chaos runs opt in.
    listing_cache: Optional[ListingCacheConfig] = None

    def __post_init__(self) -> None:
        if self.nn_cores < 1:
            raise ConfigError("namenode needs at least one core")

    def op_cost(self, op: OpType) -> float:
        return self.op_cost_mutation_ms if op.mutates else self.op_cost_read_ms
