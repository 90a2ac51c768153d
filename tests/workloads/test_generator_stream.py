"""The table-driven generators draw what ``random.choices`` drew.

``SpotifyWorkload`` and ``SingleOpWorkload`` pick the op and the popular
file from cumulative tables built once.  The references below are the
generators as they were before that: every weighted draw is a literal
``rng.choices(...)`` call, re-accumulating its weights each time.  Same
seed must give the same items, one for one, and leave the RNG in the same
state — so every schedule that consumed the old stream replays unchanged.
"""

import random
import time
import zlib
from itertools import accumulate

import pytest

from repro.types import OpType
from repro.workloads.namespace import generate_namespace
from repro.workloads.spotify import SPOTIFY_MIX, SingleOpWorkload, SpotifyWorkload


class ReferenceSpotify:
    """``SpotifyWorkload`` with its draws spelled as ``random.choices`` calls."""

    def __init__(self, namespace, seed=0, tag="", working_set_size=32,
                 working_set_locality=0.97):
        self.namespace = namespace
        self.rng = random.Random(zlib.crc32(f"{seed}:{tag}".encode()))
        self._ops = list(SPOTIFY_MIX)
        self._weights = [SPOTIFY_MIX[o] for o in self._ops]
        self._created = []
        self._counter = 0
        self._mkdir_counter = 0
        self.working_set_size = working_set_size
        self.working_set_locality = working_set_locality
        self._working_sets = {}

    def working_set(self, client_id):
        ws = self._working_sets.get(client_id)
        if ws is None:
            ws = self.rng.choices(
                self.namespace.files,
                cum_weights=list(accumulate(self.namespace.file_weights)),
                k=self.working_set_size,
            )
            self._working_sets[client_id] = ws
        return ws

    def _popular_file(self, client_id=None):
        if client_id is not None and self.working_set_size > 0:
            ws = self.working_set(client_id)
            if self.rng.random() < self.working_set_locality:
                return self.rng.choice(ws)
        return self.rng.choices(
            self.namespace.files, weights=self.namespace.file_weights, k=1
        )[0]

    def next_op(self, client_id=None):
        op = self.rng.choices(self._ops, weights=self._weights, k=1)[0]
        if op in (OpType.READ_FILE, OpType.STAT, OpType.EXISTS):
            return op, {"path": self._popular_file(client_id)}
        if op is OpType.LIST_DIR:
            return op, {"path": self.rng.choice(self.namespace.dirs)}
        if op is OpType.CREATE_FILE:
            directory = self.rng.choice(self.namespace.dirs)
            self._counter += 1
            path = f"{directory}/bench-{self._counter}"
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
            return op, {"path": self.rng.choice(self.namespace.files), "permission": 0o644}
        if op is OpType.MKDIR:
            self._mkdir_counter += 1
            top = self.rng.choice(self.namespace.top_dirs)
            return op, {"path": f"{top}/bench-dir-{self._mkdir_counter}"}
        raise AssertionError(f"unhandled op {op}")


class ReferenceSingleOp:
    """``SingleOpWorkload`` with the readFile draw as ``random.choices``."""

    def __init__(self, op, namespace, seed=0):
        self.op = op
        self.namespace = namespace
        self.rng = random.Random(seed)
        self._counter = 0
        self._pre_created = []

    def precreate_paths(self, count):
        paths = []
        for _ in range(count):
            self._counter += 1
            directory = self.rng.choice(self.namespace.dirs)
            paths.append(f"{directory}/pre-{self._counter}")
        self._pre_created = list(reversed(paths))
        return paths

    def next_op(self, client_id=None):
        if self.op is OpType.READ_FILE:
            return self.op, {
                "path": self.rng.choices(
                    self.namespace.files, weights=self.namespace.file_weights, k=1
                )[0]
            }
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
            return OpType.READ_FILE, {"path": self.rng.choice(self.namespace.files)}
        raise AssertionError(f"unsupported microbenchmark op {self.op}")


def _namespace():
    # Small enough that the reference's per-draw accumulate stays cheap, large
    # enough that the Zipf table has a long tail to bisect into.
    return generate_namespace(num_top_dirs=3, dirs_per_top=5, files_per_dir=8, seed=4)


def _grow(namespace, index):
    """A file appearing mid-run (both lists grow, so the table must too)."""
    namespace.files.append(f"/proj0/dir0/late-{index}")
    namespace.file_weights.append(0.05)


def _assert_same_stream(new, ref, draws, client_for, grow_at=()):
    for i in range(draws):
        if i in grow_at:
            _grow(new.namespace, i)
            _grow(ref.namespace, i)
        client_id = client_for(i)
        got, want = new.next_op(client_id=client_id), ref.next_op(client_id=client_id)
        assert got == want, f"draw {i} (client {client_id}): {got} != {want}"
    assert new.rng.getstate() == ref.rng.getstate()


@pytest.mark.parametrize("seed", [0, 7, 101])
@pytest.mark.parametrize("clients", [1, 48, 960])
def test_spotify_stream_equals_choices_reference(seed, clients):
    new = SpotifyWorkload(_namespace(), seed=seed, tag="CephFS")
    ref = ReferenceSpotify(_namespace(), seed=seed, tag="CephFS")
    # Clients show up out of index order, so working sets are created in
    # first-use order, interleaved with op draws.
    order = random.Random(seed).sample(range(clients), clients)
    _assert_same_stream(
        new, ref, 50_000, lambda i: order[i % clients], grow_at={1_000, 20_000, 20_001}
    )
    assert list(new._working_sets) == list(ref._working_sets)
    assert new._working_sets == ref._working_sets
    assert new._created == ref._created
    assert new.namespace.files == ref.namespace.files


@pytest.mark.parametrize("kwargs", [{"working_set_size": 0}, {"working_set_locality": 0.5}])
def test_spotify_stream_without_and_beside_working_sets(kwargs):
    new = SpotifyWorkload(_namespace(), seed=3, tag="t", **kwargs)
    ref = ReferenceSpotify(_namespace(), seed=3, tag="t", **kwargs)
    # client_id None (trace recording, examples) skips working sets entirely.
    _assert_same_stream(new, ref, 20_000, lambda i: None if i % 3 == 0 else i % 5)


def test_spotify_empty_created_falls_back_to_stat():
    """With nothing created yet, delete and rename become stat draws; the
    fallback must consume the same uniforms as the reference's."""
    new = SpotifyWorkload(_namespace(), seed=11, tag="fallback")
    ref = ReferenceSpotify(_namespace(), seed=11, tag="fallback")
    seen = set()
    for i in range(50_000):
        # Keep ``_created`` empty so every delete/rename takes the fallback.
        new._created.clear()
        ref._created.clear()
        got, want = new.next_op(client_id=i % 7), ref.next_op(client_id=i % 7)
        assert got == want, i
        seen.add(got[0])
    assert seen == set(SPOTIFY_MIX) - {OpType.DELETE_FILE, OpType.RENAME}
    assert new.rng.getstate() == ref.rng.getstate()


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "op", [OpType.READ_FILE, OpType.CREATE_FILE, OpType.MKDIR, OpType.DELETE_FILE]
)
def test_single_op_stream_equals_choices_reference(op, seed):
    new = SingleOpWorkload(op, _namespace(), seed=seed)
    ref = ReferenceSingleOp(op, _namespace(), seed=seed)
    if op is OpType.DELETE_FILE:
        # Fewer victims than draws: the tail is the read fallback.
        assert new.precreate_paths(3_000) == ref.precreate_paths(3_000)
    _assert_same_stream(new, ref, 5_000, lambda i: i % 4, grow_at={100, 2_500})


def test_single_op_read_draw_is_not_linear_in_files():
    """readFile on the bench namespace (8 x 64 x 32 = 16,384 files) used to
    re-accumulate every weight per draw (~485 us); a table draw is O(log n).
    The bound is 20x the target so a slow phase of the machine cannot trip it
    and 8x under the old cost."""
    namespace = generate_namespace(num_top_dirs=8, dirs_per_top=64, files_per_dir=32, seed=0)
    gen = SingleOpWorkload(OpType.READ_FILE, namespace, seed=0)
    ref = ReferenceSingleOp(OpType.READ_FILE, namespace, seed=0)
    assert [gen.next_op() for _ in range(200)] == [ref.next_op() for _ in range(200)]
    start = time.perf_counter()
    for _ in range(20_000):
        gen.next_op()
    per_draw_us = (time.perf_counter() - start) / 20_000 * 1e6
    assert per_draw_us < 60.0, per_draw_us


def test_table_rejects_what_choices_rejected():
    namespace = _namespace()
    namespace.file_weights.append(1.0)  # one weight too many
    with pytest.raises(ValueError):
        SingleOpWorkload(OpType.READ_FILE, namespace).next_op()
    namespace = _namespace()
    namespace.file_weights[:] = [0.0] * len(namespace.files)
    with pytest.raises(ValueError):
        SpotifyWorkload(namespace).working_set(0)
