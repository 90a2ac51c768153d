"""The frame budget of the transaction path (DESIGN.md §4).

Every resume of a parked task re-enters each generator frame on its
``yield from`` chain, so a frame that only delegates is paid on every
wait.  These walk ``gi_yieldfrom`` from the task's own generator while
it is parked and hold the three budgets: an NN op parked on the ``tc_read``
of its path walk <= 7 frames, on ``tc_commit`` <= 4, and a datanode's
chain hops 0: a prepare, commit or complete hop is a callback chain, its
row-lock wait a stage, and neither does a read-front hit hold a frame (the
NN's request chain never starts its ``_serve`` task).  A source
scan keeps the per-message spawns tasks: no server's ``_on_message`` builds
a process.
"""

import importlib
import inspect
import pkgutil

import repro
from repro.hopsfs.listcache import ListingCacheConfig
from repro.hopsfs.namenode import Namenode
from repro.ndb.datanode import NdbDatanode
from repro.net.server import Server

from .conftest import make_fs, run

READ_BUDGET, COMMIT_BUDGET, CHAIN_HOP_BUDGET = 7, 4, 0
# Frames each chain-hop handler leaves parked: none, a prepare's row-lock
# wait is a stage registered on the grant like its thread hand-offs.
CHAIN_HOPS = {
    "chain_prepare": [],
    "chain_commit": [],
    "complete": [],
}


def _chain(generator):
    """The suspended frames from ``generator`` down to the one that yielded."""
    frames = []
    while generator is not None and generator.gi_frame is not None:
        frames.append(generator)
        generator = generator.gi_yieldfrom
    return frames


def _capture(monkeypatch, cls, method, keep):
    """Record the generators ``cls.method`` returns for messages ``keep`` accepts."""
    captured = []
    original = getattr(cls, method)

    def spy(self, msg, *args):
        generator = original(self, msg, *args)
        if keep(msg):
            captured.append((msg, generator))
        return generator

    monkeypatch.setattr(cls, method, spy)
    return captured


def _drive(fs, client_op, sample):
    proc = fs.env.process(client_op)
    while proc.is_alive:
        fs.env.step()
        sample()
    assert proc.ok


def _parked_call_chains(captured, kind):
    """Chains whose innermost frame is ``NdbTransaction._call`` waiting on ``kind``."""
    for _msg, generator in captured:
        frames = _chain(generator)
        if frames and frames[-1].gi_code.co_name == "_call":
            if frames[-1].gi_frame.f_locals["kind"] == kind:
                yield [g.gi_code.co_name for g in frames]


def _setup(monkeypatch, **paths):
    fs = make_fs(**paths)
    client = fs.client()

    def prepare():
        yield from client.mkdir("/d")
        yield from client.create("/d/f", data=b"x")

    run(fs, prepare())
    fs_ops = _capture(monkeypatch, Namenode, "_serve", lambda msg: True)
    return fs, client, fs_ops


def test_read_file_parked_on_tc_read(monkeypatch):
    fs, client, fs_ops = _setup(monkeypatch)
    seen = []
    _drive(fs, client.read("/d/f"),
           lambda: seen.extend(_parked_call_chains(fs_ops, "tc_read")))
    walks = [names for names in seen if "_walk" in names]
    assert walks, seen  # the file row is never dir-cached: the walk reads it
    deepest = max(walks, key=len)
    assert deepest[0] == "_serve" and deepest[-2:] == ["_walk", "_call"]
    assert len(deepest) <= READ_BUDGET, deepest


def test_commit_parked_on_tc_commit(monkeypatch):
    fs, client, fs_ops = _setup(monkeypatch)
    seen = []
    _drive(fs, client.mkdir("/d/sub"),
           lambda: seen.extend(_parked_call_chains(fs_ops, "tc_commit")))
    assert seen
    deepest = max(seen, key=len)
    assert deepest[0] == "_serve" and deepest[-1] == "_call"
    assert len(deepest) <= COMMIT_BUDGET, deepest


def test_read_front_hit_starts_no_task(monkeypatch):
    fs, client, fs_ops = _setup(monkeypatch, listing_cache=ListingCacheConfig())
    run(fs, client.stat("/d/f"))  # a miss: transactional, and it fills the cache
    assert len(fs_ops) == 1
    caches = [nn.listing_cache for nn in fs.namenodes]
    hits = sum(cache.hits for cache in caches)
    run(fs, client.stat("/d/f"))
    assert sum(cache.hits for cache in caches) == hits + 1
    assert len(fs_ops) == 1  # the hit ended as a callback chain: 0 frames


def test_chain_hop_handlers(monkeypatch):
    fs, client, _fs_ops = _setup(monkeypatch)
    handled = []
    for kind in CHAIN_HOPS:
        # The RECV stage looks handlers up in this table per message.
        original = NdbDatanode._HANDLERS[kind]

        def spy(node, msg, _original=original):
            generator = _original(node, msg)
            handled.append((msg, generator))
            return generator

        monkeypatch.setitem(NdbDatanode._HANDLERS, kind, spy)
    deepest = {}

    def sample():
        for msg, generator in handled:
            names = [g.gi_code.co_name for g in _chain(generator)]
            if len(names) >= len(deepest.get(msg.kind, ())):
                deepest[msg.kind] = names

    _drive(fs, client.mkdir("/d/sub"), sample)
    for kind, frames in CHAIN_HOPS.items():
        assert deepest.get(kind) == frames, (kind, deepest.get(kind))
        assert len(frames) <= CHAIN_HOP_BUDGET
    # A callback hop returns no generator at all.
    assert {msg.kind for msg, generator in handled if generator is None} == set(CHAIN_HOPS)
    assert all(generator is None for _msg, generator in handled)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_server_builds_a_process_per_message():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith(".__main__"):  # that one runs the CLI
            importlib.import_module(module.name)
    servers = [cls for cls in _subclasses(Server) if "_on_message" in vars(cls)]
    assert len(servers) >= 7, servers
    for cls in servers:
        source = inspect.getsource(cls._on_message)
        assert "env.process(" not in source, f"{cls.__name__}._on_message: start a task"
