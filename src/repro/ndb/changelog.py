"""NDB changelog: committed-row-mutation stream for subscriber caches.

The listing cache (``repro.hopsfs.listcache``) pre-materializes directory
listings and inode attributes in NN memory; its invalidation signal is
this changelog.  When a transaction coordinator reaches the commit point
(all ChainCommits applied), it publishes the transaction's row images —
``(table, pk, partition_key, value)`` with :data:`~repro.ndb.schema.TOMBSTONE`
values for deletes — to the cluster's :class:`ChangelogBus`, which fans
them out as one-way ``ndb_changelog`` messages to every subscribed NN.

The stream is ordered and never loses a batch silently:

* **ordered** — delivery is FIFO per route (``Network.send``).  The TC
  publishes before it replies to the commit, on the same TC -> NN route,
  so the mutating NN applies a commit's batch before the reply resumes
  the op.  Across routes batches may interleave; their pops are
  idempotent and commute, so no sequence numbers are needed.
* **lost batches flush** — a batch the network drops on delivery (the
  subscriber down, partitioned away or not listening) calls that
  subscriber's ``lost`` callback, its cache's ``flush``: it noticed its
  stream broke and starts over empty.  A batch from a TC that is already down
  is not sent at all; take-over's flush order covers it.
* **flush order** — TC failure take-over can roll a transaction *forward*
  on a survivor without the TC-side op images, so its row mutations
  cannot be itemized.  The take-over publishes a batch with
  ``flush=True`` instead, and every subscriber flushes wholesale.

With zero subscribers (``HopsFsConfig.listing_cache=None`` — the
default), ``publish`` is a pure no-op: no messages, no events, no state,
so every legacy schedule stays bit-identical to the pinned goldens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..net.network import Message
from ..types import NodeAddress

__all__ = ["ChangelogBatch", "ChangelogBus", "CHANGELOG_KIND"]

CHANGELOG_KIND = "ndb_changelog"

# Wire-size model: batch header plus one row image per record.
_BATCH_HEADER_BYTES = 96
_RECORD_BYTES = 64


@dataclass(frozen=True)
class ChangelogBatch:
    """One committed transaction's row mutations, or a flush order."""

    # (table, pk, partition_key, value) per committed row op; ``value`` is
    # TOMBSTONE for deletes.
    records: tuple
    flush: bool = False

    @property
    def size(self) -> int:
        return _BATCH_HEADER_BYTES + _RECORD_BYTES * len(self.records)


class ChangelogBus:
    """Cluster-level fan-out of committed row mutations to subscriber NNs."""

    def __init__(self, network):
        self.network = network
        # addr -> lost callback; fanned out in address order (schedule
        # determinism).
        self._subscribers: dict[NodeAddress, Callable[[], None]] = {}
        self.published = 0  # batches published (counts flush orders too)
        network.on_lost[CHANGELOG_KIND] = self._lost

    @property
    def subscribers(self) -> tuple[NodeAddress, ...]:
        return tuple(self._subscribers)

    def subscribe(self, addr: NodeAddress, lost: Callable[[], None]) -> None:
        """Fan batches out to ``addr``; ``lost()`` runs when one is dropped."""
        self._subscribers[addr] = lost
        self._subscribers = dict(sorted(self._subscribers.items()))

    def unsubscribe(self, addr: NodeAddress) -> None:
        self._subscribers.pop(addr, None)

    def publish(self, src: NodeAddress, records: Sequence[tuple]) -> None:
        """Fan out one committed transaction's row images from TC ``src``."""
        if self._subscribers and records:
            self._fan_out(src, ChangelogBatch(tuple(records)))

    def publish_flush(self, src: NodeAddress) -> None:
        """Order every subscriber cache to flush wholesale (take-over
        roll-forward: the surviving datanode cannot itemize the orphaned
        transaction's row images)."""
        if self._subscribers:
            self._fan_out(src, ChangelogBatch((), flush=True))

    def _fan_out(self, src: NodeAddress, batch: ChangelogBatch) -> None:
        self.published += 1
        for addr in self._subscribers:
            self.network.send(
                Message(
                    src=src,
                    dst=addr,
                    kind=CHANGELOG_KIND,
                    payload=batch,
                    size=batch.size,
                )
            )

    def _lost(self, message: Message) -> None:
        lost = self._subscribers.get(message.dst)
        if lost is not None:
            lost()
