"""Aggregated open-loop arrivals for very large virtual-client populations.

The per-client drivers in :mod:`repro.workloads.driver` spawn one DES
process per client, so memory and event count scale with the client count —
fine for the paper's few-thousand-client figure runs, hopeless for the
1M+-client regime the paper's headline numbers (HopsFS-CL at ~1.66M ops/s)
come from.  This module inverts the representation: clients become a
*population distribution*, and a single generator process per shard draws

* inter-arrival gaps from an exponential stream (open-loop Poisson
  arrivals at the shard's share of the offered load), and
* the identity of the virtual client issuing each operation from a
  Zipf-skewed population sampler (:class:`ZipfPopulation`), hotspot-heavy
  the way CFS characterises container-platform metadata traffic.

Memory and event count now scale with *traffic*, not with population size:
a million virtual clients cost exactly as much as a hundred, because a
client only exists at the instants it issues operations.

Every arrival is accounted (offered load, distinct clients, per-client
skew); a deterministic 1-in-``detail_every`` subsample is executed in full
detail through the real client/server/transaction stack so latency numbers
come from the actual system model rather than a closed-form approximation.
Sampled execution is the standard DES answer to open-loop streams whose
full event cost would dwarf the machine (the alternative — simulating
every one of millions of ops/s — is exactly the per-client scaling wall
this module removes).

Determinism: all draws come from named streams of a per-shard
:class:`~repro.sim.rng.RngRegistry` (``(seed, shard_id, stream)``
derivation), so two shards never share a sequence and one shard replays
bit-identically.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from ..errors import ReproError
from ..metrics.collectors import MetricsCollector
from ..types import OpResult
from .driver import EXPECTED_ERRORS

__all__ = ["ZipfPopulation", "AggregatedArrivalEngine"]


def _helper1(x: float) -> float:
    """Numerically stable ``log1p(x) / x``."""
    if abs(x) > 1e-8:
        return math.log1p(x) / x
    return 1.0 - x / 2.0 + x * x / 3.0


def _helper2(x: float) -> float:
    """Numerically stable ``expm1(x) / x``."""
    if abs(x) > 1e-8:
        return math.expm1(x) / x
    return 1.0 + x / 2.0 + x * x / 6.0


class ZipfPopulation:
    """O(1)-memory Zipf(s) sampler over client ids ``0..n-1``.

    Implements rejection-inversion sampling (Hörmann & Derflinger, the
    algorithm behind YCSB's and commons-math's Zipf generators): the
    inverse of the integral of ``x^-s`` proposes a rank, a cheap acceptance
    test corrects the discretisation, and no per-client state is ever
    materialised — which is the whole point at a million clients.  Client
    id ``k`` is rank ``k+1``, so id 0 is the hottest client.

    The expected share of the top ``m`` clients is
    ``H(m, s) / H(n, s)`` with ``H`` the generalised harmonic number;
    tests pin the sampler against that closed form.
    """

    __slots__ = ("n", "s", "rng", "_hx1", "_hn", "_c")

    def __init__(self, n: int, s: float, rng: random.Random):
        if n < 1:
            raise ReproError(f"population must be >= 1 (got {n})")
        if s <= 0:
            raise ReproError(f"zipf exponent must be > 0 (got {s})")
        self.n = n
        self.s = s
        self.rng = rng
        self._hx1 = self._h_integral(1.5) - 1.0
        self._hn = self._h_integral(n + 0.5)
        self._c = 2.0 - self._h_integral_inverse(
            self._h_integral(2.5) - self._h(2.0)
        )

    def _h(self, x: float) -> float:
        return math.exp(-self.s * math.log(x))

    def _h_integral(self, x: float) -> float:
        log_x = math.log(x)
        return _helper2((1.0 - self.s) * log_x) * log_x

    def _h_integral_inverse(self, x: float) -> float:
        t = x * (1.0 - self.s)
        if t < -1.0:
            t = -1.0  # clamp round-off so the root stays in domain
        return math.exp(_helper1(t) * x)

    def sample(self) -> int:
        """Draw one client id in ``[0, n)``; typically one iteration."""
        random_ = self.rng.random
        hn, hx1 = self._hn, self._hx1
        while True:
            u = hn + random_() * (hx1 - hn)
            x = self._h_integral_inverse(u)
            k = int(x + 0.5)
            if k < 1:
                k = 1
            elif k > self.n:
                k = self.n
            if k - x <= self._c or u >= self._h_integral(k + 0.5) - self._h(k):
                return k - 1

    def expected_top_share(self, top: int) -> float:
        """Closed-form traffic share of the ``top`` hottest clients."""
        top = min(top, self.n)
        h_top = sum(k ** -self.s for k in range(1, top + 1))
        h_all = h_top + sum(k ** -self.s for k in range(top + 1, self.n + 1))
        return h_top / h_all


class AggregatedArrivalEngine:
    """One shard's arrival generator: population in, operations out.

    Driver-shaped (``start()`` / ``stop()`` / a shared
    :class:`MetricsCollector`) so it slots into the same harness code as
    :class:`~repro.workloads.driver.OpenLoopDriver`, but arrivals are
    aggregated: the generator is a single DES process pinned to one AZ
    whose per-event work is a gap draw, a client-identity draw and
    bookkeeping.  Detailed ops run open-loop on a small pool of client
    stubs, capped at ``max_inflight`` so an overloaded deployment degrades
    into shed detail samples instead of unbounded in-flight state.  A
    given ``hub`` (:class:`~repro.obs.timeseries.TimeSeriesHub`) sees every
    detailed op, under its stub's AZ.
    """

    def __init__(
        self,
        env,
        stubs,
        workload,
        collector: MetricsCollector,
        population: ZipfPopulation,
        rate_per_ms: float,
        arrival_rng: random.Random,
        detail_every: int = 64,
        max_inflight: int = 64,
        az: Optional[int] = None,
        hub=None,
    ):
        if rate_per_ms <= 0:
            raise ReproError("arrival rate must be positive")
        if detail_every < 1:
            raise ReproError("detail_every must be >= 1")
        if not stubs:
            raise ReproError("need at least one client stub")
        self.env = env
        self.stubs = list(stubs)
        self.workload = workload
        self.collector = collector
        self.population = population
        self.rate_per_ms = rate_per_ms
        self.arrival_rng = arrival_rng
        self.detail_every = detail_every
        self.max_inflight = max_inflight
        self.az = az
        self.hub = hub
        self.stopped = False
        # -- accounting (all deterministic under a fixed seed) -----------
        self.arrivals = 0
        self.shed = 0  # detail samples skipped because max_inflight was hit
        self.inflight = 0
        self.detailed = 0
        self.max_client_id = -1
        self.distinct_clients: set[int] = set()
        self._next_stub = 0

    def offered_ops(self) -> int:
        """Total arrivals generated so far (the offered load numerator)."""
        return self.arrivals

    def start(self) -> None:
        name = "scale-arrivals" if self.az is None else f"scale-arrivals-az{self.az}"
        self.env.process(self._arrival_loop(), name=name)

    def stop(self) -> None:
        self.stopped = True

    def _arrival_loop(self):
        env = self.env
        timeout = env.timeout
        expovariate = self.arrival_rng.expovariate
        sample = self.population.sample
        rate = self.rate_per_ms
        detail_every = self.detail_every
        distinct = self.distinct_clients.add
        next_op = self.workload.next_op
        stubs = self.stubs
        # Hot loop: one kernel event per arrival; everything else is a few
        # C-implemented draws and integer bookkeeping.
        while not self.stopped:
            yield timeout(expovariate(rate))
            client_id = sample()
            self.arrivals += 1
            distinct(client_id)
            if client_id > self.max_client_id:
                self.max_client_id = client_id
            if self.arrivals % detail_every == 0:
                if self.inflight >= self.max_inflight:
                    self.shed += 1
                    continue
                op, kwargs = next_op(client_id=client_id)
                stub = stubs[self._next_stub]
                self._next_stub = (self._next_stub + 1) % len(stubs)
                self.inflight += 1
                env.spawn(self._one_op(stub, op, kwargs))

    def _one_op(self, stub, op, kwargs):
        env = self.env
        start = env.now
        ok, error = True, None
        try:
            yield from stub.run(op, kwargs)
        except EXPECTED_ERRORS as exc:
            ok, error = False, type(exc).__name__
        finally:
            self.inflight -= 1
        self.detailed += 1
        self.collector.record(
            OpResult(op, start, env.now, ok, stub.last_op_failures, error)
        )
        if self.hub is not None:
            self.hub.record_op(stub.az, env.now - start, ok, env.now)
