"""Client-side NDB API: sessions, transactions and the retry loop.

The API mirrors what HopsFS uses from ClusterJ/the NDB API: begin a
transaction with a partition-key *hint* (distribution-aware transactions),
primary-key reads at a chosen lock level, partition-pruned index scans,
writes, and commit/abort.  Transient failures surface as
:class:`TransactionAbortedError` with ``retryable=True``; HopsFS wraps
operations in :func:`run_transaction` which retries with backoff,
providing backpressure to NDB (Section II-B2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

from ..errors import (
    ConfigError,
    DeadlineExceededError,
    HostUnreachableError,
    NdbError,
    TransactionAbortedError,
)
from ..types import AzId, NodeAddress
from .messages import TcAbortReq, TcCommitReq, TcReadReq, TcScanReq, TcWriteReq
from .schema import TOMBSTONE, LockMode
from .tc_selection import select_tc

__all__ = ["NdbApi", "NdbTransaction", "RetryPolicy", "run_transaction"]


class NdbApi:
    """A per-host handle to the NDB cluster (one per metadata server)."""

    def __init__(self, cluster, addr: NodeAddress):
        self.cluster = cluster
        self.addr = addr
        self.az: AzId = cluster.network.topology.az_of(addr)
        self._rng = cluster.rng.stream(f"ndbapi:{addr}")

    def transaction(
        self,
        hint_table: Optional[str] = None,
        hint_key: Optional[Hashable] = None,
    ) -> "NdbTransaction":
        """Open a transaction; the TC is chosen now, from the hint."""
        table = self.cluster.schema.get(hint_table) if hint_table else None
        tc = select_tc(
            self.cluster.network.topology,
            self.cluster.partition_map,
            table,
            hint_key,
            self.addr,
            self.cluster.config.az_aware,
            self._rng,
        )
        return NdbTransaction(self, tc)


class NdbTransaction:
    """One open transaction, pinned to a transaction coordinator.

    The operations are plain functions that *return* the :meth:`_call`
    generator (``yield from txn.read(...)``), so a caller parked on the TC
    round-trip has one frame below it, not two.  Their argument checks and
    bookkeeping (``writes``) therefore run when the operation is called,
    which every caller does in the same statement that starts iterating it.
    """

    __slots__ = ("api", "tc", "txid", "finished", "writes", "obs_span", "_undo")

    def __init__(self, api: NdbApi, tc: NodeAddress):
        self.api = api
        self.tc = tc
        self.txid = api.cluster.next_txid()
        self.finished = False
        # The write set: every TcWriteReq sent, deletes included, in order.
        self.writes: list[TcWriteReq] = []
        # Set by run_transaction when tracing: the attempt span every RPC of
        # this transaction parents under.
        self.obs_span = None
        # (fn, args) to run if the transaction is abandoned; see on_abort.
        self._undo: Optional[list] = None

    # -- plumbing ---------------------------------------------------------
    def _call(self, kind: str, payload: Any, size: int, finish: bool = False):
        """One TC round-trip; ``finish`` (commit) settles the transaction on success."""
        if self.finished:
            raise NdbError(f"transaction {self.txid} already finished")
        api = self.api
        try:
            result = yield api.cluster.network.call(
                api.addr, self.tc, kind, payload, size, self.obs_span
            )
        except HostUnreachableError as exc:
            # The TC died (or we got partitioned from it).  NDB's take-over
            # protocol rebuilds/aborts the transaction on another TC; from
            # the client's perspective the transaction aborted, retryable.
            self.finished = True
            raise TransactionAbortedError(f"TC {self.tc} unreachable: {exc}") from exc
        if finish:
            self.finished = True
            self._undo = None  # committed: the side effects stand
        return result

    def on_abort(self, fn: Callable, *args) -> None:
        """Register ``fn(*args)`` to undo an in-memory side effect.

        Runs if the transaction is abandoned instead of committed (see
        :meth:`abort`), never after a successful :meth:`commit`.
        """
        if self._undo is None:
            self._undo = []
        self._undo.append((fn, args))

    # -- operations -----------------------------------------------------------
    def read(
        self,
        table: str,
        pk: Hashable,
        partition_key: Optional[Hashable] = None,
        lock: LockMode = LockMode.NONE,
    ):
        """Primary-key read.  ``lock`` NONE = read committed."""
        return self._call(
            "tc_read",
            TcReadReq(
                self.txid, table, pk, pk if partition_key is None else partition_key,
                lock, self.api.az,
            ),
            192,
        )

    def scan(self, table: str, partition_key: Hashable):
        """Partition-pruned index scan: all rows with ``partition_key``."""
        return self._call(
            "tc_scan", TcScanReq(self.txid, table, partition_key, self.api.az), 192
        )

    def write(
        self,
        table: str,
        pk: Hashable,
        value: Any,
        partition_key: Optional[Hashable] = None,
        size_hint: Optional[int] = None,
    ):
        """Insert or update a row (prepared on all replicas before return).

        ``size_hint`` sizes the wire message — used for small files whose
        payload travels inside the metadata row (Section II-A3).
        """
        req = TcWriteReq(
            self.txid, table, pk, pk if partition_key is None else partition_key,
            value, self.api.az,
        )
        self.writes.append(req)
        return self._call("tc_write", req, max(128, size_hint or 256))

    def delete(self, table: str, pk: Hashable, partition_key: Optional[Hashable] = None):
        return self.write(table, pk, TOMBSTONE, partition_key, 128)

    def commit(self):
        return self._call("tc_commit", TcCommitReq(self.txid), 96, True)

    def abort(self):
        """Abandon the transaction (idempotent): run the undos, tell the TC.

        The undos run even when there is nobody to tell — an unreachable TC
        already marked the transaction finished — and exactly once.
        """
        undo = self._undo
        if undo is not None:
            self._undo = None
            for fn, args in undo:
                fn(*args)
        if self.finished:
            return
        try:
            yield from self._call("tc_abort", TcAbortReq(self.txid), 96)
        except TransactionAbortedError:
            pass  # TC already gone; the take-over/failure path cleans up
        self.finished = True


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter and a bounded retry budget."""

    max_retries: int = 8
    backoff_base_ms: float = 2.0
    backoff_max_ms: float = 40.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("retry budget cannot be negative")
        if self.backoff_base_ms <= 0 or self.backoff_max_ms <= 0:
            raise ConfigError("backoff bounds must be positive")

    def backoff_ms(self, attempt: int, rng=None) -> float:
        """Delay before retry ``attempt`` (1-based); jitter in [0.5x, 1.5x)."""
        base = min(self.backoff_max_ms, self.backoff_base_ms * (2 ** (attempt - 1)))
        if rng is None:
            return base
        return base * (0.5 + rng.random())


# The retries of one metadata transaction: 12, backing off 2 -> 200 ms.
TXN_RETRY = RetryPolicy(max_retries=12, backoff_max_ms=200.0)


def run_transaction(
    api: NdbApi,
    body: Callable[[NdbTransaction], Any],
    hint_table: Optional[str] = None,
    hint_key: Optional[Hashable] = None,
    parent_span=None,
    deadline: Optional[float] = None,
):
    """Run ``body(txn)`` (a generator function) with commit and retries.

    This is HopsFS's transaction retry mechanism: aborted transactions are
    retried with :data:`TXN_RETRY`'s exponential backoff, which provides
    backpressure to NDB.  Non-retryable errors (application errors) abort
    and propagate.

    ``deadline`` (absolute sim ms) is the enclosing op's budget: expired
    before an attempt, or an attempt whose backoff would sleep past it,
    fails fast with :class:`DeadlineExceededError` instead of starting
    doomed work.

    When tracing, each attempt gets its own ``ndb.txn`` span under
    ``parent_span``, tagged with the attempt index, the selected TC and its
    AZ, and the outcome — TC selection and retry behaviour then read
    directly off the trace.
    """
    env = api.cluster.env
    obs = env.obs
    attempt = 0
    while True:
        if deadline is not None and env.now >= deadline:
            raise DeadlineExceededError("op deadline expired before NDB attempt")
        txn = api.transaction(hint_table, hint_key)
        span = None
        if obs is not None:
            span = obs.tracer.start(
                "ndb.txn", parent=parent_span,
                host=str(api.addr), tc=str(txn.tc),
                tc_az=api.cluster.network.topology.az_of(txn.tc),
                attempt=attempt,
            )
            txn.obs_span = span
        try:
            result = yield from body(txn)
            yield from txn.commit()
            if span is not None:
                obs.tracer.finish(span, outcome="committed")
            return result
        except TransactionAbortedError as exc:
            yield from txn.abort()
            if span is not None:
                obs.tracer.finish(span, outcome="aborted", retryable=exc.retryable)
                obs.registry.counter("ndb.txn.aborts").inc()
            if not exc.retryable or attempt >= TXN_RETRY.max_retries:
                raise
            attempt += 1
            # Streams are derived by name: fetching it only when a back-off
            # draws leaves every stream's draw order as it was.
            rng = api.cluster.rng.stream(f"txnretry:{api.addr}")
            delay = TXN_RETRY.backoff_ms(attempt, rng)
            if deadline is not None and env.now + delay >= deadline:
                raise DeadlineExceededError(
                    "op deadline would expire during NDB retry backoff"
                ) from exc
            yield env.timeout(delay)
        except GeneratorExit:
            raise  # closing a simulation generator must not yield again
        except BaseException:
            yield from txn.abort()
            if span is not None:
                obs.tracer.finish(span, outcome="error")
            raise
