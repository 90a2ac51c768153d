"""Subtree partitioning of the CephFS namespace across MDS ranks.

CephFS delegates *subtrees* to MDS ranks [34]; an inode is served by the
rank authoritative for its containing directory, and subtrees are split at
second-level directories (the balancer breaks up hot top-level dirs).

Two assignment modes are modelled:

* **dynamic** (default): subtrees land on ranks by hashing — the emergent
  assignment is imbalanced (some ranks receive several hot subtrees,
  others none), which is why the default setup trails DirPinned in Fig. 5;
* **pinned** (CephFS-DirPinned): the operator enumerates the subtrees and
  pins them round-robin, trading location transparency for balance
  (Section V-A-b).  Configure with :meth:`pin`.
"""

from __future__ import annotations

from typing import Iterable

from ..hashing import stable_hash

__all__ = ["SubtreePartitioner"]


class SubtreePartitioner:
    """Maps paths to the MDS rank authoritative for them."""

    def __init__(self, num_ranks: int, pinned: bool):
        if num_ranks < 1:
            raise ValueError("need at least one MDS rank")
        self.num_ranks = num_ranks
        self.pinned = pinned
        # subtree key -> rank, used in pinned mode (operator's pin map).
        self.pin_table: dict[str, int] = {}
        # rank -> takeover rank, installed when an MDS fails over.
        self.rank_overrides: dict[int, int] = {}
        # directory -> dir_rank(directory); cleared by pin() and
        # install_override(), the only writers of the two tables above.
        self._dir_ranks: dict[str, int] = {}

    def subtree_key_of_dir(self, dir_path: str) -> str:
        """The subtree a *directory* (and its direct children) belongs to."""
        return "/" + "/".join([c for c in dir_path.split("/") if c][:2])

    def pin(self, subtree_keys: Iterable[str]) -> None:
        """DirPinned: assign the given subtrees round-robin over all ranks."""
        for index, key in enumerate(sorted(set(subtree_keys))):
            self.pin_table[key] = index % self.num_ranks
        self._dir_ranks.clear()

    def _resolve_override(self, rank: int) -> int:
        seen = set()
        while rank in self.rank_overrides and rank not in seen:
            seen.add(rank)
            rank = self.rank_overrides[rank]
        return rank

    def install_override(self, dead_rank: int, takeover_rank: int) -> None:
        self.rank_overrides[dead_rank] = takeover_rank
        self._dir_ranks.clear()

    def dir_rank(self, dir_path: str) -> int:
        """Rank serving operations *inside* ``dir_path`` (e.g. listdir)."""
        try:
            return self._dir_ranks[dir_path]
        except KeyError:
            pass
        key = self.subtree_key_of_dir(dir_path)
        if key == "/":
            rank = 0  # rank 0 is authoritative for the root
        else:
            rank = self.pin_table.get(key) if self.pinned else None
            if rank is None:
                rank = stable_hash(key) % self.num_ranks
        rank = self._dir_ranks[dir_path] = self._resolve_override(rank)
        return rank

    def rank_of(self, path: str) -> int:
        """Rank serving operations *on* ``path`` (its containing dir's rank)."""
        parent = path.rsplit("/", 1)[0] or "/"
        try:
            return self._dir_ranks[parent]
        except KeyError:
            return self.dir_rank(parent)

    def authority_counts(self, paths) -> dict[int, int]:
        """How many of ``paths`` land on each rank (for balance tests)."""
        counts: dict[int, int] = {}
        for path in paths:
            rank = self.rank_of(path)
            counts[rank] = counts.get(rank, 0) + 1
        return counts
