"""One reference model checks every serving path.

:class:`NamespaceModel` is a plain dict from path to node: the executable
statement of what a client may observe of the namespace (atomic rename,
consistent listing, read-your-writes).  It is the only oracle here.

Six clients, each on its own subtree, are pinned round-robin to two
namenodes and replay one seeded script each — every op kind a client has,
plus deliberate errors — on each of the 16 combinations of ``robust``,
``async_commit``, ``elastic`` and ``listing_cache``
(:data:`test_path_combinations.ON`).  On every combination:

* every op's outcome equals the model's, op for op: the payload a client
  observes of a success, or the error class;
* the final committed namespace equals the model's tree;
* ``namespace_integrity`` holds, and each path's own promises hold where it
  is on: ``async_commit``'s fsync barriers succeed, its durability horizon
  holds and it grouped ops; ``listing_cache`` served hits and its live
  entries match committed state; ``robust`` applied no mutation twice.

Subtrees are disjoint, so each script has one outcome whatever the
interleaving of clients, and one model replays them all.
"""

import random
from typing import NamedTuple, Optional

import pytest

from repro.chaos.invariants import (
    durability_horizon,
    exactly_once,
    listing_consistency,
    namespace_integrity,
)
from repro.errors import (
    DirectoryNotEmptyError,
    FileAlreadyExistsError,
    FileNotFoundFsError,
    FsError,
    InvalidPathError,
    NotDirectoryError,
)
from repro.hopsfs.pathlock import split_path
from repro.hopsfs.snapshot import namespace_snapshot

from .conftest import make_fs, run
from .test_path_combinations import COMBINATIONS, ON

CLIENTS = 6
OPS_PER_CLIENT = 60
SEED = 2026


class _Node(NamedTuple):
    is_dir: bool
    data: Optional[bytes]  # a file's inline content; None for a directory
    permission: int = 0o755


def _join(parent: str, name: str) -> str:
    return f"/{name}" if parent == "/" else f"{parent}/{name}"


class NamespaceModel:
    """Reference semantics: ``tree`` maps each path to its :class:`_Node`.

    A path resolves component by component, as the namenode's walk does: a
    file where a directory is needed is ``NotDirectoryError``, a missing
    component ``FileNotFoundFsError``.  Each op raises the error class the
    real operation raises, checked in the same order, and returns what a
    client observes of its reply (:func:`observed`).
    """

    def __init__(self):
        self.tree = {"/": _Node(True, None)}

    def _resolve(self, path: str, count_back: int = 0) -> str:
        """The path of ``path``'s inode, or of its ``count_back``-th ancestor."""
        components = split_path(path)
        at = "/"
        for name in components[: len(components) - count_back]:
            if not self.tree[at].is_dir:
                raise NotDirectoryError(f"{at} is not a directory")
            at = _join(at, name)
            if at not in self.tree:
                raise FileNotFoundFsError(f"{at} does not exist")
        return at

    def _slot(self, path: str) -> str:
        """``path`` once its parent resolves to a directory."""
        components = split_path(path)
        if not components:
            raise InvalidPathError("operation not allowed on the root directory")
        parent = self._resolve(path, count_back=1)
        if not self.tree[parent].is_dir:
            raise NotDirectoryError(f"{parent} is not a directory")
        return _join(parent, components[-1])

    def _children(self, path: str) -> list:
        prefix = _join(path, "")
        return [p for p in self.tree
                if p != path and p.startswith(prefix) and "/" not in p[len(prefix):]]

    def mkdir(self, path: str) -> None:
        self.create(path, None)

    def create(self, path: str, data: Optional[bytes] = b"") -> None:
        """A file of ``data``, or a directory when ``data`` is None."""
        path = self._slot(path)
        if path in self.tree:
            raise FileAlreadyExistsError(f"{path} already exists")
        self.tree[path] = _Node(data is None, data)

    def read(self, path: str) -> bytes:
        node = self.tree[self._resolve(path)]
        if node.is_dir:
            raise FsError(f"{path} is a directory")
        return node.data

    def stat(self, path: str) -> tuple:
        node = self.tree[self._resolve(path)]
        return (node.is_dir, len(node.data or b""), node.permission)

    def exists(self, path: str) -> bool:
        try:
            self._resolve(path)
        except (FileNotFoundFsError, NotDirectoryError):
            return False
        return True

    def listdir(self, path: str) -> tuple:
        path = self._resolve(path)
        if not self.tree[path].is_dir:
            raise NotDirectoryError(f"{path} is not a directory")
        return tuple(sorted(p.rsplit("/", 1)[1] for p in self._children(path)))

    def chmod(self, path: str, permission: int) -> None:
        path = self._slot(path)
        if path not in self.tree:
            raise FileNotFoundFsError(f"{path} does not exist")
        self.tree[path] = self.tree[path]._replace(permission=permission)

    def delete(self, path: str) -> None:
        path = self._slot(path)
        if path not in self.tree:
            raise FileNotFoundFsError(f"{path} does not exist")
        if self._children(path):
            raise DirectoryNotEmptyError(f"{path} is not empty")
        del self.tree[path]

    def rename(self, src: str, dst: str) -> None:
        src, dst = self._slot(src), self._slot(dst)
        if src == dst:
            raise InvalidPathError("rename onto itself")
        if src not in self.tree:
            raise FileNotFoundFsError(f"{src} does not exist")
        if dst in self.tree:
            raise FileAlreadyExistsError(f"{dst} already exists")
        if dst.startswith(src + "/"):
            raise InvalidPathError(f"cannot move {src} under itself")
        for path in [p for p in self.tree if p == src or p.startswith(src + "/")]:
            self.tree[dst + path[len(src):]] = self.tree.pop(path)

    def snapshot(self) -> dict:
        """The tree in :func:`~repro.hopsfs.snapshot.namespace_snapshot`'s
        shape (every row has replication 3 and none is under construction)."""
        return {
            path: ("dir" if node.is_dir else "file", len(node.data or b""), node.permission,
                   3, False, node.data)
            for path, node in self.tree.items() if path != "/"
        }


def observed(name: str, result):
    """What a client observes of a successful op's reply."""
    if name == "read":
        return bytes(result.small_data)
    if name == "stat":
        return (result.is_dir, result.size, result.permission)
    if name == "listdir":
        return tuple(sorted(result))
    if name == "exists":
        return bool(result)
    return None  # a mutation's reply carries ids the model does not allocate


def real_outcome(client, name: str, args):
    """Generator: one op on ``client``; ``("ok", observed)`` or the error class."""
    try:
        result = yield from getattr(client, name)(*args)
    except FsError as exc:
        return type(exc).__name__
    return ("ok", observed(name, result))


def model_outcome(model: NamespaceModel, name: str, args):
    """The same op on the model."""
    try:
        return ("ok", getattr(model, name)(*args))
    except FsError as exc:
        return type(exc).__name__


def build_scripts(seed: int = SEED) -> list:
    """One script of ``(op, args)`` per client, on its own subtree ``/c<i>``:
    mostly ops that succeed, plus deliberate errors."""
    rng = random.Random(seed)
    scripts = []
    for i in range(CLIENTS):
        root = f"/c{i}"
        dirs, files, script = [root], [], [("mkdir", (root,))]
        for n in range(1, OPS_PER_CLIENT + 1):
            r = rng.random()
            if r < 0.2 or not files:
                path = f"{rng.choice(dirs)}/f{n}"
                script.append(("create", (path, bytes([65 + n % 26]) * rng.randrange(1, 200))))
                files.append(path)
            elif r < 0.3:
                dirs.append(f"{rng.choice(dirs)}/d{n}")
                script.append(("mkdir", (dirs[-1],)))
            elif r < 0.72:
                kind = "read" if r < 0.45 else "stat" if r < 0.55 else "exists" if r < 0.62 else "listdir"
                script.append((kind, (rng.choice(dirs if kind == "listdir" else files),)))
            elif r < 0.78:
                script.append(("chmod", (rng.choice(files), rng.randrange(0o400, 0o777))))
            elif r < 0.85:
                src = files.pop(rng.randrange(len(files)))
                files.append(f"{rng.choice(dirs)}/r{n}")
                script.append(("rename", (src, files[-1])))
            elif r < 0.92:
                script.append(("delete", (files.pop(rng.randrange(len(files))),)))
            else:
                script.append(rng.choice([
                    ("mkdir", (root,)),
                    ("read", (f"{root}/missing{n}",)),
                    ("read", (rng.choice(dirs),)),
                    ("delete", (f"{root}/missing{n}",)),
                    ("delete", (root,)),
                    ("listdir", (f"{root}/nodir{n}",)),
                    ("listdir", (rng.choice(files),)),
                    ("stat", (f"{rng.choice(files)}/x",)),
                    ("exists", (f"{rng.choice(files)}/x",)),
                    ("rename", (root, f"{rng.choice(dirs)}/moved{n}")),
                ]))
        scripts.append(script)
    return scripts


SCRIPTS = build_scripts()


def _expected():
    """Per-client model outcomes, and the model's final tree."""
    model = NamespaceModel()
    outcomes = [[model_outcome(model, name, args) for name, args in script] for script in SCRIPTS]
    return outcomes, model.snapshot()


def _replay(combo):
    """The scripts on a two-NN deployment with the paths of ``combo`` on:
    the deployment, each client's outcomes and its closing fsync's result."""
    fs = make_fs(num_namenodes=2, seed=7, **{name: ON[name] for name in combo})
    outcomes = [[] for _ in SCRIPTS]
    fsyncs = []

    def client_proc(idx, client, script):
        for name, args in script:
            outcomes[idx].append((yield from real_outcome(client, name, args)))
        fsyncs.append((yield from client.fsync()))

    def drive():
        yield from fs.await_election()
        procs = []
        for idx, script in enumerate(SCRIPTS):
            client = fs.client()
            client.current_nn = fs.namenodes[idx % 2].addr
            procs.append(fs.env.process(client_proc(idx, client, script)))
        for proc in procs:
            yield proc

    run(fs, drive(), until=20_000)
    fs.env.run(until=fs.env.now + 100.0)  # a lingering group batch flushes
    return fs, outcomes, fsyncs


@pytest.mark.parametrize("combo", COMBINATIONS, ids=lambda c: "+".join(c) or "none")
def test_every_path_combination_agrees_with_the_model(combo):
    expected, tree = _expected()
    fs, outcomes, fsyncs = _replay(combo)
    for idx, (got, want) in enumerate(zip(outcomes, expected)):
        for step, (op, real, model) in enumerate(zip(SCRIPTS[idx], got, want)):
            assert real == model, f"client {idx} op {step} {op}: real {real} != model {model}"
    assert namespace_snapshot(fs) == tree
    assert namespace_integrity(fs).ok
    assert fsyncs == [True] * CLIENTS
    if "async_commit" in combo:
        assert durability_horizon(fs).ok
        assert sum(nn.committer.ops_grouped for nn in fs.namenodes) > 0
    if "listing_cache" in combo:
        assert listing_consistency(fs).ok
        assert sum(nn.listing_cache.hits for nn in fs.namenodes) > 0
    if "robust" in combo:
        assert exactly_once(fs).ok
