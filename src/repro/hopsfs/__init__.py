"""HopsFS / HopsFS-CL: the distributed hierarchical file system.

Three layers (Fig. 1): the metadata storage layer (:mod:`repro.ndb`), the
metadata serving layer (stateless namenodes, leader election, AZ-local
server selection), and the block storage layer (placement policies,
pipelines, re-replication).  ``build_hopsfs(az_aware=True, ...)`` yields
HopsFS-CL; ``az_aware=False`` yields vanilla HopsFS.
"""

from .blocks import BlockManager, PlacementPolicy, choose_targets
from .client import HopsFsClient
from .config import HopsFsConfig
from .datanode import BlockStoreDatanode
from .elastic import (
    Autoscaler,
    ElasticConfig,
    ProvisionRecord,
    ReconfigEvent,
    elastic_summary,
)
from .filesystem import HopsFsDeployment, build_hopsfs
from .groupcommit import (
    AsyncCommitConfig,
    GroupAck,
    GroupCommitLedger,
    GroupCommitter,
)
from .leader import LeaderElectionService
from .listcache import ListingCache, ListingCacheConfig
from .metadata import (
    BLOCK_SIZE_BYTES,
    ROOT_INODE_ID,
    SMALL_FILE_MAX_BYTES,
    BlockRow,
    IdGenerator,
    InodeRow,
    LeaderRow,
    LeaseRow,
    define_fs_schema,
)
from .namenode import Namenode
from .ops import FileContent, FsContext
from .robust import CircuitBreaker, RetryCache, RetryPolicy, RobustConfig

__all__ = [
    "BlockManager",
    "PlacementPolicy",
    "choose_targets",
    "HopsFsClient",
    "HopsFsConfig",
    "BlockStoreDatanode",
    "Autoscaler",
    "ElasticConfig",
    "ProvisionRecord",
    "ReconfigEvent",
    "elastic_summary",
    "HopsFsDeployment",
    "build_hopsfs",
    "AsyncCommitConfig",
    "GroupAck",
    "GroupCommitLedger",
    "GroupCommitter",
    "LeaderElectionService",
    "ListingCache",
    "ListingCacheConfig",
    "BLOCK_SIZE_BYTES",
    "ROOT_INODE_ID",
    "SMALL_FILE_MAX_BYTES",
    "BlockRow",
    "IdGenerator",
    "InodeRow",
    "LeaderRow",
    "LeaseRow",
    "define_fs_schema",
    "Namenode",
    "FileContent",
    "FsContext",
    "CircuitBreaker",
    "RetryCache",
    "RetryPolicy",
    "RobustConfig",
]
