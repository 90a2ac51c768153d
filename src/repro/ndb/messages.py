"""Payload types for the NDB wire protocol.

The message kinds mirror Figure 2 of the paper: Prepare/Prepared,
Commit/Committed, Complete/Completed, plus the client-facing TCKEYREQ-style
requests and the heartbeat/arbitration control plane.

Every payload is slotted (no per-instance ``__dict__``) and the senders on
the transaction path build them positionally: field order is part of the
interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

from ..types import AzId, NodeAddress
from .schema import LockMode

__all__ = [
    "TcReadReq",
    "TcScanReq",
    "TcWriteReq",
    "TcCommitReq",
    "TcAbortReq",
    "LdmReadReq",
    "LdmScanReq",
    "ChainPrepare",
    "ChainCommit",
    "CompleteMsg",
    "ReleaseLocksMsg",
    "PreparedMsg",
    "CommittedMsg",
    "CompletedMsg",
    "PrepareFailedMsg",
    "HeartbeatMsg",
    "ArbitrationReq",
]


# -- client -> TC -------------------------------------------------------------
@dataclass(slots=True)
class TcReadReq:
    txid: int
    table: str
    pk: Hashable
    partition_key: Hashable
    lock: LockMode = LockMode.NONE
    client_az: AzId = 0


@dataclass(slots=True)
class TcScanReq:
    txid: int
    table: str
    partition_key: Hashable
    client_az: AzId = 0


@dataclass(slots=True)
class TcWriteReq:
    txid: int
    table: str
    pk: Hashable
    partition_key: Hashable
    value: Any  # TOMBSTONE for deletes
    client_az: AzId = 0


@dataclass(slots=True)
class TcCommitReq:
    txid: int


@dataclass(slots=True)
class TcAbortReq:
    txid: int


# -- TC -> LDM (reads) ---------------------------------------------------------
@dataclass(slots=True)
class LdmReadReq:
    txid: int
    table: str
    pk: Hashable
    partition_key: Hashable
    partition: int
    lock: LockMode
    role: int  # replica role of the serving node (0 = primary)
    client_az: AzId


@dataclass(slots=True)
class LdmScanReq:
    txid: int
    table: str
    partition_key: Hashable
    partition: int
    role: int
    client_az: AzId


# -- linear 2PC chain (one-way messages) ----------------------------------------
@dataclass(slots=True)
class ChainPrepare:
    """Travels TC -> primary -> backups; the last hop reports Prepared."""

    txid: int
    seq: int  # operation sequence within the transaction
    table: str
    pk: Hashable
    partition_key: Hashable
    partition: int
    value: Any
    chain: tuple[NodeAddress, ...]
    hop: int  # index of the node processing this message
    tc: NodeAddress


@dataclass(slots=True)
class ChainCommit:
    """Travels TC -> last backup -> ... -> primary (reverse order)."""

    txid: int
    seq: int
    table: str
    pk: Hashable
    partition: int
    chain: tuple[NodeAddress, ...]
    hop: int  # position from the END of the chain
    tc: NodeAddress


@dataclass(slots=True)
class CompleteMsg:
    txid: int
    seq: int
    table: str
    pk: Hashable
    partition: int
    tc: NodeAddress
    want_completed: bool  # TC waits for Completed (Read Backup / FR tables)


@dataclass(slots=True)
class ReleaseLocksMsg:
    """Release read locks held at a node for a finished transaction.

    ``keys`` lists the specific row keys to unlock (commit path: rows that
    were only read).  ``keys=None`` means full rollback: abort prepared
    rows and release every lock of the transaction (abort path).
    """

    txid: int
    # Ordered tuple (not a set): the receiving LDM releases in this order,
    # which must be deterministic across processes.
    keys: Optional[tuple] = None


# -- chain acknowledgements (one-way, back to the TC) -----------------------------
@dataclass(slots=True)
class PreparedMsg:
    txid: int
    seq: int


@dataclass(slots=True)
class CommittedMsg:
    txid: int
    seq: int


@dataclass(slots=True)
class CompletedMsg:
    txid: int
    seq: int


@dataclass(slots=True)
class PrepareFailedMsg:
    txid: int
    seq: int
    error: str


# -- control plane -----------------------------------------------------------------
@dataclass(slots=True)
class HeartbeatMsg:
    sender: NodeAddress
    epoch: int = 0


@dataclass(slots=True)
class ArbitrationReq:
    """A partitioned component asks the arbitrator for the right to live."""

    requester: NodeAddress
    component: frozenset = field(default_factory=frozenset)
    epoch: int = 0
