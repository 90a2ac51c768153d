"""Exception hierarchy for the HopsFS-CL reproduction."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "UnsupportedError",
    "NetworkError",
    "HostUnreachableError",
    "RpcTimeoutError",
    "NdbError",
    "TransactionAbortedError",
    "LockTimeoutError",
    "NodeFailedError",
    "NoDatanodesError",
    "ClusterShutdownError",
    "FsError",
    "FileNotFoundFsError",
    "FileAlreadyExistsError",
    "NotDirectoryError",
    "DirectoryNotEmptyError",
    "InvalidPathError",
    "LeaseExpiredError",
    "SafeModeError",
    "NoNamenodeError",
    "PlacementError",
    "DeadlineExceededError",
    "ServerBusyError",
    "ServerDrainingError",
]


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigError(ReproError):
    """Invalid deployment or component configuration."""


class UnsupportedError(ReproError):
    """The setup cannot run what was asked of it — an answer, not a failure."""


# --- network ---------------------------------------------------------------
class NetworkError(ReproError):
    """Base class for network-level failures."""


class HostUnreachableError(NetworkError):
    """Destination host is down or partitioned away from the sender."""


class RpcTimeoutError(NetworkError):
    """An RPC did not complete within its ``timeout_ms`` budget.

    The slow peer may still be alive (gray failure): a reply arriving
    after the timeout is discarded deterministically by the network.
    """


# --- NDB (metadata storage layer) -------------------------------------------
class NdbError(ReproError):
    """Base class for metadata-storage (NDB) errors."""


class TransactionAbortedError(NdbError):
    """The transaction was aborted; the caller may retry.

    Mirrors NDB's temporary errors (deadlock-detection timeout, node
    failure during commit, inactivity timeout) which HopsFS handles with a
    retry loop providing backpressure.
    """

    def __init__(self, message: str, retryable: bool = True):
        super().__init__(message)
        self.retryable = retryable


class LockTimeoutError(TransactionAbortedError):
    """TransactionDeadlockDetectionTimeout fired while waiting for a lock."""


class NodeFailedError(NdbError):
    """An NDB datanode needed by the operation has failed."""


class NoDatanodesError(NdbError):
    """No live NDB datanode can serve the requested partition."""


class ClusterShutdownError(NdbError):
    """The node was told to shut down (lost arbitration / partitioned)."""


# --- file system -------------------------------------------------------------
class FsError(ReproError):
    """Base class for file-system-level errors."""


class FileNotFoundFsError(FsError):
    """Path does not exist."""


class FileAlreadyExistsError(FsError):
    """Create/mkdir target already exists."""


class NotDirectoryError(FsError):
    """A path component is a file where a directory was required."""


class DirectoryNotEmptyError(FsError):
    """Refusing to remove / overwrite a non-empty directory."""


class InvalidPathError(FsError):
    """Malformed path string."""


class LeaseExpiredError(FsError):
    """Writer lease no longer held."""


class SafeModeError(FsError):
    """The namesystem is read-only (e.g. during startup or AZ shutdown)."""


class NoNamenodeError(FsError):
    """Client could not find any live metadata server."""


class PlacementError(FsError):
    """Block placement policy could not satisfy its constraints."""


class DeadlineExceededError(FsError):
    """The per-op deadline expired; a hop refused to start doomed work."""


class ServerBusyError(FsError):
    """Namenode admission control shed the request; retry after backoff."""


class ServerDrainingError(ServerBusyError):
    """The namenode is draining out of the pool; pick another server now.

    Unlike plain overload shedding, a drain never clears on its own —
    backing off and retrying the same server is wasted work, so clients
    drop it from their local view immediately instead of waiting for the
    next membership refresh.
    """
