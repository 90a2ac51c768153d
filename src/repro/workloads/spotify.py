"""Operation generators: the Spotify industrial mix and single-op loads.

The Spotify operation mix approximates the workload published with HopsFS
(FAST'17, operational traces from Spotify's Hadoop cluster): ~95% of
metadata operations are reads (getBlockLocations / getFileInfo / listing)
and ~5% mutate the namespace.  The proprietary trace itself is not
available; the published mix is what the paper's benchmark replays.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect
from itertools import accumulate

from ..types import OpType
from .namespace import Namespace

__all__ = ["SPOTIFY_MIX", "SpotifyWorkload", "SingleOpWorkload"]

# Fractions of each operation in the Spotify workload (approximation of
# HopsFS FAST'17 Table 1; documented in EXPERIMENTS.md).
SPOTIFY_MIX: dict[OpType, float] = {
    OpType.READ_FILE: 0.669,
    OpType.STAT: 0.140,
    OpType.LIST_DIR: 0.090,
    OpType.EXISTS: 0.047,
    OpType.CREATE_FILE: 0.027,
    OpType.DELETE_FILE: 0.0075,
    OpType.RENAME: 0.0075,
    OpType.CHMOD: 0.010,
    OpType.MKDIR: 0.0015,
}


_POPULAR_FILE_OPS = (OpType.READ_FILE, OpType.STAT, OpType.EXISTS)


def _cum_table(population, weights) -> tuple:
    """``(population, cum_weights, total, hi)`` for one-uniform weighted draws.

    ``population[bisect(cum, rng.random() * total, 0, hi)]`` is, expression
    for expression, what ``rng.choices(population, weights=weights, k=1)[0]``
    evaluates after it has accumulated and validated the weights — so a draw
    from the table consumes the same single uniform and picks the same item;
    only the per-draw accumulate, validation and result list are gone.
    """
    cum = list(accumulate(weights))
    if len(cum) != len(population):
        raise ValueError("The number of weights does not match the population")
    total = cum[-1] + 0.0
    if not 0.0 < total < float("inf"):
        raise ValueError("Total of weights must be finite and greater than zero")
    return population, cum, total, len(population) - 1


class _PopularFiles:
    """The namespace's Zipf file table, rebuilt when files are added."""

    __slots__ = ("namespace", "_table", "_len")

    def __init__(self, namespace: Namespace):
        self.namespace = namespace
        self._table = None
        self._len = -1

    def table(self) -> tuple:
        files = self.namespace.files
        if self._len != len(files):
            self._table = _cum_table(files, self.namespace.file_weights)
            self._len = len(files)
        return self._table

    def draw(self, rng) -> str:
        files, cum, total, hi = self.table()
        return files[bisect(cum, rng.random() * total, 0, hi)]


class SpotifyWorkload:
    """Draws (op, kwargs) pairs following the Spotify mix.

    Reads target Zipf-popular preloaded files; creates add fresh names;
    deletes and renames consume files this generator created earlier so
    they never fail with not-found.  One instance is shared by all clients
    of a run (its RNG is the source of op-level randomness).
    """

    def __init__(
        self,
        namespace: Namespace,
        seed: int = 0,
        tag: str = "",
        working_set_size: int = 32,
        working_set_locality: float = 0.97,
    ):
        self.namespace = namespace
        self.rng = random.Random(zlib.crc32(f"{seed}:{tag}".encode()))
        self._op_table = _cum_table(list(SPOTIFY_MIX), SPOTIFY_MIX.values())
        self._created: list[str] = []
        self._counter = 0
        self._mkdir_counter = 0
        # Per-client working sets: Hadoop tasks re-read the same project
        # files, which is what makes client-side caches effective and keeps
        # any single inode's share of cluster load bounded.
        self.working_set_size = working_set_size
        self.working_set_locality = working_set_locality
        self._working_sets: dict = {}
        self._popular = _PopularFiles(namespace)

    def working_set(self, client_id) -> list[str]:
        """The file working set of one client (created on first use)."""
        ws = self._working_sets.get(client_id)
        if ws is None:
            files, cum, _total, _hi = self._popular.table()
            ws = self.rng.choices(files, cum_weights=cum, k=self.working_set_size)
            self._working_sets[client_id] = ws
        return ws

    def _fresh_name(self) -> str:
        self._counter += 1
        return f"bench-{self._counter}"

    def _popular_file(self, client_id=None) -> str:
        rng = self.rng
        if client_id is not None and self.working_set_size > 0:
            ws = self.working_set(client_id)
            if rng.random() < self.working_set_locality:
                return rng.choice(ws)
        return self._popular.draw(rng)

    def next_op(self, client_id=None) -> tuple[OpType, dict]:
        ops, cum, total, hi = self._op_table
        op = ops[bisect(cum, self.rng.random() * total, 0, hi)]
        if op in _POPULAR_FILE_OPS:
            return op, {"path": self._popular_file(client_id)}
        if op is OpType.LIST_DIR:
            return op, {"path": self.rng.choice(self.namespace.dirs)}
        if op is OpType.CREATE_FILE:
            directory = self.rng.choice(self.namespace.dirs)
            path = f"{directory}/{self._fresh_name()}"
            self._created.append(path)
            return op, {"path": path, "data": b""}
        if op is OpType.DELETE_FILE:
            if self._created:
                return op, {"path": self._created.pop()}
            return OpType.STAT, {"path": self._popular_file(client_id)}
        if op is OpType.RENAME:
            if self._created:
                src = self._created.pop()
                dst = f"{src}-r{self._counter}"
                self._created.append(dst)
                return op, {"src": src, "dst": dst}
            return OpType.STAT, {"path": self._popular_file(client_id)}
        if op is OpType.CHMOD:
            # Permission changes hit uniform (mostly cold) files; chmod on a
            # hot file would trigger capability-revocation storms no real
            # workload exhibits at this rate.
            return op, {"path": self.rng.choice(self.namespace.files), "permission": 0o644}
        if op is OpType.MKDIR:
            self._mkdir_counter += 1
            top = self.rng.choice(self.namespace.top_dirs)
            return op, {"path": f"{top}/bench-dir-{self._mkdir_counter}"}
        raise AssertionError(f"unhandled op {op}")


class SingleOpWorkload:
    """Microbenchmark generator: a stream of one operation type (Fig. 7)."""

    def __init__(self, op: OpType, namespace: Namespace, seed: int = 0):
        self.op = op
        self.namespace = namespace
        self.rng = random.Random(seed)
        self._counter = 0
        self._pre_created: list[str] = []
        self._popular = _PopularFiles(namespace)

    def precreate_paths(self, count: int) -> list[str]:
        """Paths that must exist before a deleteFile microbenchmark."""
        paths = []
        for _ in range(count):
            self._counter += 1
            directory = self.rng.choice(self.namespace.dirs)
            paths.append(f"{directory}/pre-{self._counter}")
        self._pre_created = list(reversed(paths))
        return paths

    def next_op(self, client_id=None) -> tuple[OpType, dict]:
        if self.op is OpType.READ_FILE:
            return self.op, {"path": self._popular.draw(self.rng)}
        if self.op is OpType.CREATE_FILE:
            self._counter += 1
            directory = self.rng.choice(self.namespace.dirs)
            return self.op, {"path": f"{directory}/new-{self._counter}", "data": b""}
        if self.op is OpType.MKDIR:
            self._counter += 1
            top = self.rng.choice(self.namespace.top_dirs)
            return self.op, {"path": f"{top}/mk-{self._counter}"}
        if self.op is OpType.DELETE_FILE:
            if self._pre_created:
                return self.op, {"path": self._pre_created.pop()}
            # Ran out of pre-created files: fall back to reads so the
            # driver keeps load on the cluster instead of erroring.
            return OpType.READ_FILE, {"path": self.rng.choice(self.namespace.files)}
        raise AssertionError(f"unsupported microbenchmark op {self.op}")
