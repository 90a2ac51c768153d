"""Workload drivers: closed-loop and open-loop clients.

Closed-loop: N clients each issue the next operation as soon as the
previous one completes — the saturation-throughput methodology of Fig. 5.
Open-loop: operations arrive at a fixed rate regardless of completions —
used for the 50%-load latency percentiles of Fig. 9.
"""

from __future__ import annotations

from ..errors import FsError, NoNamenodeError, ReproError, TransactionAbortedError
from ..metrics.collectors import MetricsCollector
from ..types import OpResult

__all__ = ["ClosedLoopDriver", "OpenLoopDriver", "EXPECTED_ERRORS"]

# Error classes a driver treats as a failed op rather than a harness bug.
# Shared with the aggregated-arrival engine (repro.workloads.arrivals).
EXPECTED_ERRORS = (FsError, TransactionAbortedError, NoNamenodeError)


class ClosedLoopDriver:
    """Runs ``num_clients`` closed-loop clients against a deployment.

    Every finished op goes to ``collector``, and to ``hub`` (a
    :class:`~repro.obs.timeseries.TimeSeriesHub`, under the client's AZ)
    when one is given.
    """

    def __init__(
        self,
        env,
        clients,
        workload,
        collector: MetricsCollector,
        hub=None,
    ):
        self.env = env
        self.clients = list(clients)
        self.workload = workload
        self.collector = collector
        self.hub = hub
        self.stopped = False
        self._procs = []

    def start(self) -> None:
        for index, client in enumerate(self.clients):
            self._procs.append(
                self.env.process(
                    self._client_loop(client, index), name="closed-loop-client"
                )
            )

    def stop(self) -> None:
        self.stopped = True

    def _client_loop(self, client, index):
        env = self.env
        next_op = self.workload.next_op
        record = self.collector.record
        client_run = client.run
        hub = self.hub
        while not self.stopped:
            op, kwargs = next_op(client_id=index)
            start = env.now
            ok, error = True, None
            try:
                yield from client_run(op, kwargs)
            except EXPECTED_ERRORS as exc:
                ok, error = False, type(exc).__name__
            record(OpResult(op, start, env.now, ok, client.last_op_failures, error))
            if hub is not None:
                hub.record_op(client.az, env.now - start, ok, env.now)


class OpenLoopDriver:
    """Issues operations at ``rate_per_ms`` using a pool of client stubs.

    Arrivals are deterministic at 1/rate spacing (adding Poisson jitter
    does not change the percentile ordering the figure reports, and keeps
    runs reproducible).
    """

    def __init__(
        self,
        env,
        clients,
        workload,
        collector: MetricsCollector,
        rate_per_ms: float,
    ):
        if rate_per_ms <= 0:
            raise ReproError("open-loop rate must be positive")
        self.env = env
        self.clients = list(clients)
        self.workload = workload
        self.collector = collector
        self.rate_per_ms = rate_per_ms
        self.stopped = False
        self._next_client = 0

    def start(self) -> None:
        self.env.process(self._arrival_loop(), name="open-loop-arrivals")

    def stop(self) -> None:
        self.stopped = True

    def _arrival_loop(self):
        env = self.env
        gap = 1.0 / self.rate_per_ms
        next_op = self.workload.next_op
        stubs = [(client.run, client) for client in self.clients]
        while not self.stopped:
            index = self._next_client % len(stubs)
            client_run, client = stubs[index]
            self._next_client += 1
            op, kwargs = next_op(client_id=index)
            env.spawn(self._one_op(client_run, client, op, kwargs))
            yield env.timeout(gap)

    def _one_op(self, client_run, client, op, kwargs):
        env = self.env
        start = env.now
        ok, error = True, None
        try:
            yield from client_run(op, kwargs)
        except EXPECTED_ERRORS as exc:
            ok, error = False, type(exc).__name__
        self.collector.record(
            OpResult(op, start, env.now, ok, client.last_op_failures, error)
        )
