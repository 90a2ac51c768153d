"""Gray-failure resilience primitives for the request path.

The paper's availability story (Section V-D) assumes fail-stop nodes; a
*gray* failure — a degraded link, an overloaded server — makes a request
slow instead of dead.  This module holds the client/server parts that turn
"slow" back into a bounded, retryable event:

- :class:`RobustBounds` — a client's bounds: an absolute per-op deadline
  that propagates in ``Message.extra`` and is enforced at every hop (NN
  dequeue, NDB retry loop), RPC timeouts, back-off with deterministic
  jitter from the client's own RNG stream under a retry budget
  (:class:`RetryPolicy`, defined beside
  :func:`repro.ndb.client.run_transaction`), per-NN circuit breakers
  (:class:`CircuitBreaker`), hedged reads and ``(client_id, op_seq)`` retry
  ids.  :class:`FailStopBounds` is the same part with ``robust`` off: the
  fail-stop client, ``max_failovers`` retries and nothing else.
- :func:`admission_cap` — how many fs ops a namenode admits before it sheds
  (unbounded with ``robust`` off).
- :class:`RetryCache` — the namenode's in-memory LRU over replayed
  mutation results (the durable copy lives in the ``retry_cache`` NDB
  table, written in the same transaction as the mutation itself, so
  retried mutations are exactly-once even across NN crashes);
  :class:`Replay` marks a result read back from that durable row.  Every
  namenode has one; only robust clients send the retry ids that reach it.
- :class:`RobustConfig` — the opt-in switch and the namenodes' admission
  cap; :func:`request_bounds` builds a client's bounds, once.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError, DeadlineExceededError
from ..ndb.client import RetryPolicy
from ..obs.metrics import count

__all__ = ["RetryPolicy", "CircuitBreaker", "RetryCache", "RobustConfig", "FailStopBounds",
           "RobustBounds", "admission_cap", "request_bounds"]


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

    It bounds the client's one request loop (:class:`RobustBounds`) and
    caps each namenode's admission; it does not select a loop.  ``None`` in
    :class:`~repro.hopsfs.config.HopsFsConfig` (the default) builds
    :class:`FailStopBounds` and an unbounded admission cap instead: no
    timers, no extra RNG streams.  Chaos targets and dedicated tests turn
    it on.
    """

    # Namenode admission control: in-flight fs_ops beyond this are shed
    # with a retryable ServerBusyError before touching the handler pool.
    nn_max_inflight: int = 96

    def __post_init__(self) -> None:
        if self.nn_max_inflight < 1:
            raise ConfigError("admission control needs room for at least one op")


def admission_cap(config: Optional[RobustConfig], unbounded: float = math.inf) -> float:
    """In-flight fs ops one namenode admits before it sheds: ``robust``'s
    cap, or ``unbounded`` with it off."""
    return unbounded if config is None else config.nn_max_inflight


def request_bounds(config, env, addr, rngs):
    """Client ``addr``'s bounds part, built once from its ``HopsFsConfig``.

    Only robust bounds fetch a stream of their own from ``rngs`` (the
    back-off jitter's ``client:<index>:retry``).
    """
    if config.robust is None:
        bounds = FailStopBounds()
        bounds.budget = config.client_max_failovers
        return bounds
    return RobustBounds(env, str(addr), rngs.stream(f"client:{addr.index}:retry"))


class FailStopBounds:
    """The request loop's bounds with ``robust`` off: the fail-stop client.

    At most ``budget`` retries (``client_max_failovers``), and nothing
    else: the deadline is infinitely far, requests carry no metadata and no
    RPC timeout, a fail-over costs no simulated time, no breaker is kept
    and no read is hedged.  :func:`request_bounds` sets ``budget``: one is
    built per client, without an ``__init__`` call (set-up is
    call-budgeted, ``benchmarks/test_setup_budget.py``).
    """

    # No op overruns an infinite deadline by more than this.
    op_timeout_ms = math.inf

    def rpc_timeout_ms(self, deadline: float) -> None:
        """No RPC timeout."""

    probe_timeout_ms = rpc_timeout_ms

    def is_open(self, nn) -> bool:
        return False  # no breaker to open

    def failed(self, nn) -> None:
        """No breaker to record an outcome on or to drop."""

    succeeded = forget = failed

    def retain(self, addrs) -> None:
        """No breakers to keep."""

    def start(self, op) -> tuple:
        """``(deadline_ms, request metadata, hedged)`` of a new op."""
        return math.inf, None, False

    def backoff(self, attempt: int, deadline: float, last_error) -> tuple:
        return ()  # a fail-over costs no simulated time


class RobustBounds:
    """One client's gray-failure bounds (``robust`` on).

    Every op gets an absolute deadline and every RPC a timeout capped by
    it; retries back off with jitter from the client's own stream (so
    enabling them never perturbs its selection draws); mutations carry
    ``(client_id, op_seq)`` retry ids; read-class ops hedge after
    ``hedge_delay_ms``; a per-NN :class:`CircuitBreaker` trips on repeated
    failures and is dropped with the NN from the client's view.

    The values are the class attributes below; a test that needs another
    sets it on a client's built ``bounds``.
    """

    # Per-RPC timeout; also the "one hop" slack the deadline invariant
    # allows (the last armed timer may fire up to one timeout late).
    op_timeout_ms = 40.0
    # Total per-op budget, client-stamped, enforced at every hop.
    deadline_ms = 240.0
    retry = RetryPolicy()
    # Read/stat-class ops fire a second request to a different NN after
    # this delay and take the first reply.  None disables hedging.
    hedge_delay_ms: Optional[float] = 15.0

    def __init__(self, env, client_id: str, retry_rng):
        self.env = env
        self.client_id = client_id
        self.retry_rng = retry_rng
        # Created on an NN's first failure; success and checks only look.
        self.breakers: defaultdict = defaultdict(CircuitBreaker)
        self._op_seq = itertools.count(1)

    @property
    def budget(self) -> int:
        """Retries an op may make (read only after a failed attempt)."""
        return self.retry.max_retries

    def start(self, op) -> tuple:
        """``(deadline_ms, request metadata, hedged)`` of a new op."""
        deadline = self.env.now + self.deadline_ms
        extra = {"deadline_ms": deadline}
        if op.mutates:
            # Exactly-once retried mutations: the NN-side RetryCache keys
            # replays off this id (same id across every retry of this op).
            extra["retry_id"] = (self.client_id, next(self._op_seq))
        return deadline, extra, self.hedge_delay_ms is not None and not op.mutates

    def rpc_timeout_ms(self, deadline: float) -> float:
        """Per-call timeout, capped so no RPC outlives the op deadline."""
        return max(0.001, min(self.op_timeout_ms, deadline - self.env.now))

    def probe_timeout_ms(self, deadline: float) -> float:
        """A discovery probe's timeout: a degraded link must not hang server
        discovery, nor may it outlive the op."""
        remaining = deadline - self.env.now
        if remaining <= 0:
            raise DeadlineExceededError("deadline expired during server discovery")
        return min(self.op_timeout_ms, remaining)

    def backoff(self, attempt: int, deadline: float, last_error):
        """Generator: sleep before retry ``attempt``, or fail fast if the
        sleep would outlast the deadline (doomed work)."""
        env = self.env
        delay = self.retry.backoff_ms(attempt, self.retry_rng)
        if deadline - env.now <= delay:
            count(env, "client.deadline_exceeded")
            raise DeadlineExceededError(
                "deadline would expire during retry backoff"
            ) from last_error
        yield env.timeout(delay)

    def is_open(self, nn) -> bool:
        breaker = self.breakers.get(nn)
        return breaker is not None and breaker.is_open(self.env.now)

    def failed(self, nn) -> None:
        if nn is not None and self.breakers[nn].record_failure(self.env.now):
            count(self.env, "client.breaker_trips")

    def succeeded(self, nn) -> None:
        breaker = self.breakers.get(nn)
        if breaker is not None:
            breaker.record_success()

    def forget(self, nn) -> None:
        self.breakers.pop(nn, None)

    def retain(self, addrs) -> None:
        """Drop the breakers of NNs no longer in ``addrs`` (the client's view)."""
        for nn in list(self.breakers):
            if nn not in addrs:
                del self.breakers[nn]
