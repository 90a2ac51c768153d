"""Gray-failure resilience primitives for the request path.

The paper's availability story (Section V-D) assumes fail-stop nodes; a
*gray* failure — a degraded link, an overloaded server — makes a request
slow instead of dead.  This module holds the client/server knobs that turn
"slow" back into a bounded, retryable event:

- :class:`Deadline` — an absolute per-op budget that propagates in
  ``Message.extra`` and is enforced at every hop (NN dequeue, NDB retry
  loop), so no hop starts work the op can no longer use.
- :class:`RetryPolicy` — exponential backoff with deterministic jitter
  drawn from a named RNG stream, plus a retry budget (defined beside
  :func:`repro.ndb.client.run_transaction`, the lowest layer that retries).
- :class:`CircuitBreaker` — per-NN client-side breaker that routes around
  persistently slow or tripped metadata servers.
- :class:`RetryCache` — the namenode's in-memory LRU over replayed
  mutation results (the durable copy lives in the ``retry_cache`` NDB
  table, written in the same transaction as the mutation itself, so
  retried mutations are exactly-once even across NN crashes);
  :class:`Replay` marks a result read back from that durable row.
- :class:`RobustConfig` — the opt-in bundle.  ``None`` (the default) runs
  the client's one request loop with no deadline, timeout, back-off,
  breaker, hedge or retry id: the fail-stop client.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from ..ndb.client import RetryPolicy

__all__ = ["Deadline", "RetryPolicy", "CircuitBreaker", "RetryCache", "RobustConfig"]


@dataclass(frozen=True)
class Deadline:
    """Absolute per-operation deadline (sim ms)."""

    expires_ms: float

    def remaining(self, now: float) -> float:
        return self.expires_ms - now

    def expired(self, now: float) -> bool:
        return now >= self.expires_ms


class CircuitBreaker:
    """Consecutive-failure breaker for one metadata server.

    Opens after ``threshold`` consecutive failures and stays open for
    ``reset_ms``; expiry is judged lazily against ``env.now`` (no timer
    events, so the breaker is schedule-free).  After the window the
    breaker is half-open: the next attempt either closes it (success) or
    re-opens it after another ``threshold`` failures.
    """

    __slots__ = ("threshold", "reset_ms", "failures", "open_until", "trips")

    def __init__(self, threshold: int = 3, reset_ms: float = 120.0):
        self.threshold = threshold
        self.reset_ms = reset_ms
        self.failures = 0
        self.open_until = float("-inf")
        self.trips = 0

    def record_failure(self, now: float) -> bool:
        """Record one failure; returns True if this tripped the breaker."""
        self.failures += 1
        if self.failures >= self.threshold:
            self.failures = 0
            self.open_until = now + self.reset_ms
            self.trips += 1
            return True
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.open_until = float("-inf")

    def is_open(self, now: float) -> bool:
        return now < self.open_until


_MISS = object()


class RetryCache:
    """LRU of ``(client_id, op_seq) -> recorded result`` on one namenode.

    Fast path only: the authoritative copy is the ``retry_cache`` NDB row
    committed atomically with the mutation, which any *other* NN finds
    when the client fails over after a post-commit crash.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ConfigError("retry cache capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key) -> tuple[bool, object]:
        """Returns ``(hit, result)``; results may legitimately be None."""
        value = self._entries.get(key, _MISS)
        if value is _MISS:
            self.misses += 1
            return False, None
        self._entries.move_to_end(key)
        self.hits += 1
        return True, value

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


class Replay:
    """Transaction-body sentinel: a retried mutation's recorded result.

    Returned instead of a fresh result when the durable ``retry_cache``
    row already exists, so the caller replays rather than re-applies.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


@dataclass(frozen=True)
class RobustConfig:
    """Opt-in gray-failure hardening for the whole request path.

    It bounds the client's one request loop; it does not select a loop.
    ``None`` in :class:`~repro.hopsfs.config.HopsFsConfig` (the default) is
    the same loop with no deadline, RPC timeout, back-off, breaker, hedge
    or retry id (so no timers and no extra RNG draws) and no NN admission
    control.  Chaos targets and dedicated tests turn it on.
    """

    # Per-RPC timeout; also the "one hop" slack the deadline invariant
    # allows (the last armed timer may fire up to one timeout late).
    op_timeout_ms: float = 40.0
    # Total per-op budget, client-stamped, enforced at every hop.
    deadline_ms: float = 240.0
    retry: RetryPolicy = RetryPolicy()
    # Read/stat-class ops fire a second request to a different NN after
    # this delay and take the first reply.  None disables hedging.
    hedge_delay_ms: Optional[float] = 15.0
    # Namenode admission control: in-flight fs_ops beyond this are shed
    # with a retryable ServerBusyError before touching the handler pool.
    nn_max_inflight: int = 96

    def __post_init__(self) -> None:
        if self.op_timeout_ms <= 0:
            raise ConfigError("op timeout must be positive")
        if self.deadline_ms < self.op_timeout_ms:
            raise ConfigError("deadline cannot be shorter than one RPC timeout")
        if self.hedge_delay_ms is not None and self.hedge_delay_ms <= 0:
            raise ConfigError("hedge delay must be positive (or None to disable)")
        if self.nn_max_inflight < 1:
            raise ConfigError("admission control needs room for at least one op")
