"""Leader election among the metadata servers, via NDB rows.

Implements the NewSQL-based election of [28] as used by HopsFS: every NN
periodically bumps a counter in its row of the ``leader`` table and scans
the table; rows whose timestamp is recent identify the live NNs, and the
live NN with the smallest id is the leader.  HopsFS-CL extends each round
to also report the server's ``locationDomainId`` (Section IV-B3), which is
what lets clients pick an AZ-local metadata server.
"""

from __future__ import annotations

from typing import Optional

from ..errors import NdbError, TransactionAbortedError
from ..ndb.client import run_transaction
from .metadata import LEADER_TABLE, LeaderRow

__all__ = ["LeaderElectionService"]

# All leader rows share one partition key so a single partition-pruned scan
# returns the full membership view.
_LEADER_PARTITION = "leader"


class LeaderElectionService:
    """One NN's participation in the election protocol."""

    def __init__(self, namenode, period_ms: float, missed_rounds: int = 2):
        self.nn = namenode
        self.period_ms = period_ms
        self.missed_rounds = missed_rounds
        self.counter = 0
        self.leader_id: Optional[int] = None
        # Latest membership view: [(nn_id, address, az)], sorted by id.
        self.active: list[tuple[int, object, int]] = []
        self.rounds = 0
        # A retired NN (graceful decommission) stops heartbeating and deletes
        # its leader row so the membership view converges without waiting for
        # the liveness horizon to expire.
        self.retired = False
        self._loop_proc = None

    @property
    def is_leader(self) -> bool:
        return self.leader_id == self.nn.nn_id

    def start(self) -> None:
        self.retired = False
        self._loop_proc = self.nn.spawn_loop("election", self._loop)

    def deregister(self):
        """Leave the election: stop the loop, then delete our leader row.

        Ordering matters: an in-flight round could re-write the row after a
        premature delete, so we first mark ourselves retired, wait for the
        heartbeat loop to observe that and exit, and only then delete.  Peers
        drop us from their view on their next scan — immediately, rather
        than after ``missed_rounds`` liveness-horizon periods as a crash
        would require.
        """
        env = self.nn.env
        self.retired = True
        poll_ms = max(1.0, self.period_ms / 10.0)
        while self._loop_proc is not None and self._loop_proc.is_alive:
            yield env.timeout(poll_ms)

        def body(txn):
            yield from txn.delete(
                LEADER_TABLE, self.nn.nn_id, partition_key=_LEADER_PARTITION
            )

        try:
            yield from run_transaction(
                self.nn.api, body, hint_table=LEADER_TABLE,
                hint_key=_LEADER_PARTITION,
            )
        except (NdbError, TransactionAbortedError):
            # Row delete is best-effort: a stale row ages out of the view
            # via the liveness horizon anyway.
            pass

    def _loop(self):
        env = self.nn.env
        while not self.retired:
            try:
                yield from self._round()
            except (NdbError, TransactionAbortedError):
                pass  # NDB hiccup: keep the previous view, try next round
            self.rounds += 1
            yield env.timeout(self.period_ms)

    def _round(self):
        env = self.nn.env
        self.counter += 1
        row = LeaderRow(
            nn_id=self.nn.nn_id,
            counter=self.counter,
            updated_ms=env.now,
            location_domain_id=self.nn.az,
            address=self.nn.addr,
        )

        def body(txn):
            yield from txn.write(
                LEADER_TABLE, self.nn.nn_id, row, partition_key=_LEADER_PARTITION
            )
            rows = yield from txn.scan(LEADER_TABLE, _LEADER_PARTITION)
            return rows

        rows = yield from run_transaction(
            self.nn.api, body, hint_table=LEADER_TABLE, hint_key=_LEADER_PARTITION
        )
        horizon = env.now - self.period_ms * self.missed_rounds
        live = sorted(
            (r.nn_id, r.address, r.location_domain_id)
            for _pk, r in rows
            if r.updated_ms >= horizon or r.nn_id == self.nn.nn_id
        )
        self.active = live
        new_leader = live[0][0] if live else self.nn.nn_id
        if new_leader != self.leader_id:
            obs = env.obs
            if obs is not None:
                obs.registry.counter("election.leader_changes").inc()
                obs.tracer.event(
                    "election.leader_change", host=str(self.nn.addr),
                    old=self.leader_id, new=new_leader,
                )
        self.leader_id = new_leader
