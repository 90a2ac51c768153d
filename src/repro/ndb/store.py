"""Per-datanode fragment store and cluster-wide read statistics.

Each NDB datanode stores the fragments (partition replicas) assigned to its
node group.  A prepared-but-uncommitted version sits next to the committed
one until Commit/Complete applies it — this is what makes the short
"backup replicas might be out of date" window of Section II-B2 observable,
and what the Read Backup delayed-ACK change closes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Iterator, Optional

from ..errors import NdbError
from ..types import NodeAddress
from .schema import TOMBSTONE

__all__ = ["FragmentStore", "ReadStats"]


@dataclass(slots=True)
class _Prepared:
    txid: int
    value: Any  # TOMBSTONE for deletes
    partition_key: Hashable


class FragmentStore:
    """Committed rows + prepared (in-flight) versions on one datanode.

    A committed row is its value, stored as given (the replicas a bulk load
    fills share it), and its partition is recorded once: by the ``_index``
    set that holds its pk.
    """

    def __init__(self) -> None:
        self._rows: dict[tuple[str, Hashable], Any] = {}
        # (table, partition_key) -> set of pks, for partition-pruned scans.
        self._index: dict[tuple[str, Hashable], set[Hashable]] = defaultdict(set)
        self._prepared: dict[tuple[str, Hashable], _Prepared] = {}
        # txid -> its prepared keys, in the order a scan of ``_prepared``
        # filtered by txid would give them (abort_all / commit_all iterate
        # it instead of every prepared row on the node).
        self._prepared_by_txn: dict[int, dict[tuple[str, Hashable], None]] = {}

    # -- reads ------------------------------------------------------------
    def read(self, table: str, pk: Hashable) -> Optional[Any]:
        return self._rows.get((table, pk))

    def lookup(self, table: str, pk: Hashable) -> tuple[bool, Optional[Any]]:
        """Committed read distinguishing absent from present: (found, value).

        The durability-horizon invariant audits whether specific batch
        writes (including deletes) landed; ``read`` alone cannot tell an
        absent row from one whose value is None.
        """
        key = (table, pk)
        if key in self._rows:
            return True, self._rows[key]
        return False, None

    def read_for(self, txid: int, table: str, pk: Hashable) -> Optional[Any]:
        """Read seeing the transaction's own prepared (uncommitted) version."""
        prepared = self._prepared.get((table, pk))
        if prepared is not None and prepared.txid == txid:
            return None if prepared.value is TOMBSTONE else prepared.value
        return self._rows.get((table, pk))

    def scan(self, table: str, partition_key: Hashable) -> list[tuple[Hashable, Any]]:
        """All committed rows of ``table`` with the given partition key."""
        rows = self._rows
        result = [(pk, rows[(table, pk)]) for pk in self._index.get((table, partition_key), ())]
        result.sort(key=lambda item: repr(item[0]))
        return result

    def has_prepared(self, table: str, pk: Hashable) -> bool:
        return (table, pk) in self._prepared

    # -- write pipeline -----------------------------------------------------
    def prepare(self, txid: int, table: str, pk: Hashable, partition_key: Hashable, value: Any) -> None:
        key = (table, pk)
        existing = self._prepared.get(key)
        if existing is not None and existing.txid != txid:
            raise NdbError(
                f"row {key} already prepared by txn {existing.txid} (lock protocol violated)"
            )
        # A re-prepared key keeps its position in both dicts.
        self._prepared[key] = _Prepared(txid, value, partition_key)
        keys = self._prepared_by_txn.get(txid)
        if keys is None:
            self._prepared_by_txn[txid] = {key: None}
        else:
            keys[key] = None

    def _drop_prepared(self, txid: int, key: tuple[str, Hashable]) -> None:
        del self._prepared[key]
        keys = self._prepared_by_txn[txid]
        del keys[key]
        if not keys:
            del self._prepared_by_txn[txid]

    def commit_prepared(self, txid: int, table: str, pk: Hashable) -> None:
        key = (table, pk)
        prepared = self._prepared.get(key)
        if prepared is None or prepared.txid != txid:
            # Another transaction's version stays where it is.
            raise NdbError(f"no prepared version of {key} for txn {txid}")
        self._drop_prepared(txid, key)
        self._apply(table, pk, prepared.partition_key, prepared.value)

    def abort_prepared(self, txid: int, table: str, pk: Hashable) -> None:
        key = (table, pk)
        prepared = self._prepared.get(key)
        if prepared is not None and prepared.txid == txid:
            self._drop_prepared(txid, key)

    def abort_all(self, txid: int) -> None:
        for key in self._prepared_by_txn.pop(txid, ()):
            del self._prepared[key]

    def commit_all(self, txid: int) -> None:
        """Apply every prepared version of ``txid`` (take-over roll-forward)."""
        for table, pk in tuple(self._prepared_by_txn.get(txid, ())):
            self.commit_prepared(txid, table, pk)

    def _apply(self, table: str, pk: Hashable, partition_key: Hashable, value: Any) -> None:
        """Store one committed version (a TOMBSTONE deletes): the one routine
        behind commits, loads and node recovery."""
        key = (table, pk)
        rows = self._rows
        if value is TOMBSTONE:
            if key in rows:
                del rows[key]
                pks = self._index.get((table, partition_key))
                if pks is None or pk not in pks:  # deleted under another partition key
                    pks = self._partition_of(table, pk)
                pks.remove(pk)
            return
        pks = self._index[(table, partition_key)]
        if pk not in pks:
            if key in rows:  # rewritten under another partition key
                self._partition_of(table, pk).remove(pk)
            pks.add(pk)
        rows[key] = value

    def _partition_of(self, table: str, pk: Hashable) -> set:
        """The index set holding a stored ``pk``, found the slow way: for a
        write that names another partition key than the row's."""
        return next(s for (t, _p), s in self._index.items() if t == table and pk in s)

    # -- bulk load (preloading namespaces without the protocol) -----------------
    def load(self, table: str, pk: Hashable, partition_key: Hashable, value: Any) -> None:
        self._apply(table, pk, partition_key, value)

    def load_many(self, entries: Iterable[tuple[str, Hashable, Hashable, Any]]) -> None:
        """Apply ``(table, pk, partition_key, value)`` entries in order."""
        apply = self._apply
        for entry in entries:
            apply(*entry)

    def load_new(self, rows: dict, partitions: list) -> bool:
        """``load_many`` of a batch whose keys are all new to this store:
        ``rows`` maps each ``(table, pk)`` to its value in load order (no
        tombstone, no key twice), ``partitions`` pairs each ``(table,
        partition_key)`` with its pks, both in the order rows first name
        them.  One ``dict.update`` and one ``set`` build per partition leave
        both orders as one-by-one loads would.  Returns False, storing
        nothing, when a key is already here; the values are shared, not copied."""
        if not self._rows.keys().isdisjoint(rows):
            return False
        self._rows.update(rows)
        index = self._index
        for key, pks in partitions:
            if key in index:
                index[key].update(pks)
            else:
                index[key] = set(pks)
        return True

    def level_with(self, donor: "FragmentStore") -> int:
        """Node recovery's copy: make the committed rows ``donor``'s.

        Applies each donor row this store lacks or holds another value of,
        in the donor's order, then deletes each row the donor lacks.
        Returns the rows copied: all of them into a fresh store.
        """
        partition_of = {
            (table, pk): partition_key
            for (table, partition_key), pks in donor._index.items()
            for pk in pks
        }
        rows = self._rows
        copied = 0
        for key, value in donor._rows.items():
            if key not in rows or rows[key] != value:
                self._apply(*key, partition_of[key], value)
                copied += 1
        for key in [key for key in rows if key not in donor._rows]:
            self._apply(*key, None, TOMBSTONE)
        return copied

    # -- introspection -------------------------------------------------------
    def row_count(self, table: Optional[str] = None) -> int:
        if table is None:
            return len(self._rows)
        return sum(1 for t, _pk in self._rows if t == table)

    def prepared_count(self) -> int:
        return len(self._prepared)

    def iter_prepared(self) -> Iterator[tuple[tuple[str, Hashable], int]]:
        """Each prepared-but-uncommitted version as ``((table, pk), txid)``."""
        for key, prepared in self._prepared.items():
            yield key, prepared.txid

    def iter_rows(self, table: str) -> Iterator[tuple[Hashable, Any]]:
        for (t, pk), value in self._rows.items():
            if t == table:
                yield pk, value


class ReadStats:
    """Cluster-wide counters of which replica served each committed read.

    Figure 14 of the paper plots, per partition, the fraction of reads that
    hit the primary vs each backup replica with Read Backup on and off.
    """

    def __init__(self) -> None:
        # (table, partition, replica_role) -> count;  role 0 = primary.
        self.by_replica: dict[tuple[str, int, int], int] = defaultdict(int)
        # AZ locality accounting: were reader and serving node in the same AZ?
        self.az_local_reads = 0
        self.az_remote_reads = 0

    def record(
        self,
        table: str,
        partition: int,
        role: int,
        node: NodeAddress,
        same_az: bool,
    ) -> None:
        self.by_replica[(table, partition, role)] += 1
        if same_az:
            self.az_local_reads += 1
        else:
            self.az_remote_reads += 1

    def partition_distribution(self, partition: int) -> dict[int, int]:
        """role -> reads for one partition, summed over tables."""
        out: dict[int, int] = defaultdict(int)
        for (table, part, role), count in self.by_replica.items():
            if part == partition:
                out[role] += count
        return dict(out)

    def total_reads(self) -> int:
        return sum(self.by_replica.values())

    def primary_fraction(self) -> float:
        total = self.total_reads()
        if not total:
            return 0.0
        primary = sum(c for (t, p, role), c in self.by_replica.items() if role == 0)
        return primary / total

    def az_local_fraction(self) -> float:
        total = self.az_local_reads + self.az_remote_reads
        return self.az_local_reads / total if total else 0.0
