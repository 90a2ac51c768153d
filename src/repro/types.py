"""Common value types shared across layers."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

__all__ = [
    "AzId",
    "ANY_AZ",
    "NodeKind",
    "NodeAddress",
    "OpType",
    "MUTATING_OPS",
    "OpResult",
]

# Availability zones are small integers (1-based, 0 = "unset" per the paper's
# locationDomainId convention: id 0 means "no AZ affinity").
AzId = int
ANY_AZ: AzId = 0


class NodeKind(str, enum.Enum):
    """Role of a simulated host (used in addresses and traces)."""

    NDB_DATANODE = "ndbd"
    NDB_MGMT = "ndb_mgmd"
    NAMENODE = "nn"
    DATANODE = "dn"
    CLIENT = "client"
    MDS = "mds"
    OSD = "osd"
    MON = "mon"

    # Enum.__hash__ is a Python-level method; members are plain strs, so
    # the C slot is equivalent and keeps NodeAddress hashing out of Python.
    __hash__ = str.__hash__


class NodeAddress(NamedTuple):
    """Stable identity of a simulated host.

    ``kind``/``index`` make traces readable (``nn3``, ``ndbd1``); equality
    and hashing use the whole tuple so two layers can never collide.

    A named tuple, not a dataclass: addresses key every handler, topology,
    traffic and partition-map lookup (~120 hashes per simulated op), and a
    tuple of a str-hashed enum and an int hashes and compares in C.
    """

    kind: NodeKind
    index: int

    def __str__(self) -> str:
        # ``_value_``, not ``.value``: the public property is two
        # Python-level descriptor calls, and traced runs tag every span
        # with its host.
        return f"{self.kind._value_}{self.index}"


class OpType(str, enum.Enum):
    """File-system operation types used by workloads and metrics.

    The set matches the operations reported for the Spotify workload in the
    HopsFS (FAST'17) paper plus the microbenchmark ops of Fig. 7.
    """

    MKDIR = "mkdir"
    MKDIRS = "mkdirs"
    CREATE_FILE = "createFile"
    READ_FILE = "readFile"
    DELETE_FILE = "deleteFile"
    STAT = "stat"
    LIST_DIR = "listDir"
    RENAME = "rename"
    CHMOD = "chmod"
    ADD_BLOCK = "addBlock"
    ABANDON_BLOCK = "abandonBlock"
    COMPLETE_FILE = "completeFile"
    EXISTS = "exists"
    SET_REPLICATION = "setReplication"
    # Durability barrier for the async group-commit path: waits until the
    # caller's acked horizons settle.  Non-mutating (no namespace writes).
    FSYNC = "fsync"

    mutates: bool  # whether the op writes the namespace: set below, per member


MUTATING_OPS = frozenset(
    {
        OpType.MKDIR,
        OpType.MKDIRS,
        OpType.CREATE_FILE,
        OpType.DELETE_FILE,
        OpType.RENAME,
        OpType.CHMOD,
        OpType.ADD_BLOCK,
        OpType.ABANDON_BLOCK,
        OpType.COMPLETE_FILE,
        OpType.SET_REPLICATION,
    }
)
for _op in OpType:
    _op.mutates = _op in MUTATING_OPS
del _op


@dataclass(slots=True)
class OpResult:
    """Outcome of one client operation, recorded by the workload driver.

    One is built per simulated op; the drivers pass the fields positionally.
    """

    op: OpType
    start_ms: float
    end_ms: float
    ok: bool = True
    retries: int = 0
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return self.end_ms - self.start_ms
