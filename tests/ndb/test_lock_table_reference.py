"""``LockTable`` against a straightforward reference, step for step.

The reference below is the lock table as it was before the allocation
sweep: a row object built on every acquire, a ``_LockRequest`` for every
request, holders copied per compatibility check.  The state machine drives
both through the same calls on two fresh kernels and requires, after every
step, the same grants in the same order, the same kernel schedule (every
``(time, priority, seq)``), the same holders / queues / per-transaction
index, and that the real table builds at most one ``_RowLock`` per row
that comes to life.

``python tests/ndb/test_lock_table_reference.py`` times an uncontended
acquire + release and a chain-hop copy against their references.
"""

from __future__ import annotations

from collections import deque

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import LockTimeoutError
from repro.ndb import LockMode, LockTable
from repro.ndb import locks as locks_module
from repro.sim import Environment

S, X = LockMode.SHARED, LockMode.EXCLUSIVE
TIMEOUT_MS = 100.0


# ------------------------------------------------------------------ reference
class _RefRequest:
    def __init__(self, txid, mode, event):
        self.txid, self.mode, self.event = txid, mode, event
        self.granted = self.abandoned = False


class _RefRow:
    def __init__(self):
        self.holders = {}
        self.queue = deque()

    @property
    def idle(self):
        return not self.holders and not self.queue


class ReferenceLockTable:
    """Strict-2PL row locks, written for clarity only."""

    def __init__(self, env, deadlock_timeout_ms):
        self.env = env
        self.deadlock_timeout_ms = deadlock_timeout_ms
        self._rows = {}
        self._by_txn = {}
        self.timeouts_fired = 0

    def acquire(self, txid, key, mode):
        row = self._rows.setdefault(key, _RefRow())
        event = self.env.event()
        held = row.holders.get(txid)
        if held is not None and self._covers(held, mode):
            event.succeed()
            return event
        request = _RefRequest(txid, mode, event)
        if self._grantable(row, request):
            self._grant(row, request, key)
            return event
        if held is not None:
            row.queue.appendleft(request)  # upgrade: ahead of newcomers
        else:
            row.queue.append(request)
        self._by_txn.setdefault(txid, {})[key] = None
        self.env.schedule_after(self.deadlock_timeout_ms, self._expire, (request, key))
        return event

    def release(self, txid, key):
        row = self._rows.get(key)
        if row is None:
            return
        if row.holders.pop(txid, None) is not None:
            keys = self._by_txn.get(txid)
            if keys is not None:
                keys.pop(key, None)
                if not keys:
                    del self._by_txn[txid]
        self._pump(row, key)

    def release_all(self, txid):
        for key in self._by_txn.pop(txid, ()):
            row = self._rows.get(key)
            if row is None:
                continue
            row.holders.pop(txid, None)
            for request in row.queue:
                if request.txid == txid and not request.abandoned:
                    request.abandoned = True
                    if not request.event.triggered:
                        request.event.fail(LockTimeoutError("aborted while waiting"))
            self._pump(row, key)

    def held_keys(self, txid):
        return set(self._by_txn.get(txid, ()))

    @property
    def active_rows(self):
        return sum(1 for row in self._rows.values() if not row.idle)

    @staticmethod
    def _covers(held, wanted):
        return held is X or wanted is S

    @staticmethod
    def _compatible(holders, request):
        others = {t: m for t, m in holders.items() if t != request.txid}
        if not others:
            return True
        if request.mode is X:
            return False
        return all(m is S for m in others.values())

    def _grantable(self, row, request):
        if row.queue and request.txid not in row.holders:
            return False  # FIFO: only an upgrade may pass a queue
        return self._compatible(row.holders, request)

    def _grant(self, row, request, key):
        request.granted = True
        row.holders[request.txid] = request.mode
        self._by_txn.setdefault(request.txid, {})[key] = None
        if not request.event.triggered:
            request.event.succeed()

    def _pump(self, row, key):
        while row.queue:
            head = row.queue[0]
            if head.abandoned or head.event.triggered:
                row.queue.popleft()
                continue
            if not self._compatible(row.holders, head):
                break
            row.queue.popleft()
            self._grant(row, head, key)
        if row.idle:
            self._rows.pop(key, None)

    def _expire(self, timer):
        request, key = timer
        if request.granted or request.abandoned or request.event.triggered:
            return
        request.abandoned = True
        self.timeouts_fired += 1
        row = self._rows.get(key)
        if row is not None:
            try:
                row.queue.remove(request)
            except ValueError:
                pass
            self._pump(row, key)
        request.event.fail(LockTimeoutError("timed out"))


# -------------------------------------------------------------- state machine
class _Side:
    """One table on its own kernel, logging every processed acquire event."""

    def __init__(self, table_cls):
        self.env = Environment()
        self.env.trace = []
        self.table = table_cls(self.env, deadlock_timeout_ms=TIMEOUT_MS)
        self.log = []
        self.acquires = 0

    def acquire(self, txid, key, mode):
        index = self.acquires
        self.acquires += 1
        event = self.table.acquire(txid, key, mode)
        event.add_callback(lambda ev: self.log.append((index, ev.ok, self.env.now)))

    def state(self):
        table = self.table
        return {
            "rows": {
                key: (
                    list(row.holders.items()),
                    [(r.txid, r.mode, r.granted, r.abandoned) for r in row.queue],
                )
                for key, row in table._rows.items()
            },
            "row_order": list(table._rows),
            "by_txn": [(txid, list(keys)) for txid, keys in table._by_txn.items()],
            "held": {txid: table.held_keys(txid) for txid in range(1, 6)},
            "active_rows": table.active_rows,
            "timeouts": table.timeouts_fired,
            "log": self.log,
            "trace": [entry[:3] for entry in self.env.trace],
            "seq": self.env._seq,
            "now": self.env.now,
        }


_txids = st.integers(1, 5)
_keys = st.sampled_from(["a", "b", ("t", 1)])
_modes = st.sampled_from([S, X])


class LockTableAgainstReference(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.real = _Side(LockTable)
        self.ref = _Side(ReferenceLockTable)
        # Count _RowLock constructions by the real table only.
        self.built = 0
        self.births = 0
        self._row_cls = locks_module._RowLock

        def counting(*args, **kwargs):
            self.built += 1
            return self._row_cls(*args, **kwargs)

        locks_module._RowLock = counting

    def teardown(self):
        locks_module._RowLock = self._row_cls

    def _both(self, call):
        before = set(self.ref.table._rows)
        for side in (self.real, self.ref):
            call(side)
        self.births += len(set(self.ref.table._rows) - before)

    @rule(txid=_txids, key=_keys, mode=_modes)
    def acquire(self, txid, key, mode):
        self._both(lambda side: side.acquire(txid, key, mode))

    @rule(txid=_txids, key=_keys)
    def release(self, txid, key):
        self._both(lambda side: side.table.release(txid, key))

    @rule(txid=_txids)
    def release_all(self, txid):
        self._both(lambda side: side.table.release_all(txid))

    @rule(dt=st.sampled_from([0.0, 1.0, 60.0, 150.0]))
    def advance(self, dt):
        # 150 ms outlasts the deadlock timeout: queued requests expire.
        self._both(lambda side: side.env.run(until=side.env.now + dt))

    @invariant()
    def same_as_reference(self):
        assert self.real.state() == self.ref.state()
        real = self.real.table
        for txid in range(1, 6):
            assert real.holds_any(txid) == bool(real.held_keys(txid))

    @invariant()
    def one_row_object_per_live_key(self):
        # A row is built when a key comes to life, never for a key already
        # in the table (the old ``setdefault(key, _RowLock())`` built one
        # per acquire).
        assert self.built == self.births


LockTableAgainstReference.TestCase.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None
)
TestLockTableAgainstReference = LockTableAgainstReference.TestCase


def test_immediate_grant_builds_no_request(monkeypatch):
    built = []
    request_cls = locks_module._LockRequest
    monkeypatch.setattr(
        locks_module, "_LockRequest",
        lambda *a, **k: built.append(1) or request_cls(*a, **k),
    )
    env = Environment()
    table = LockTable(env, deadlock_timeout_ms=TIMEOUT_MS)
    table.acquire(1, "row", S)
    table.acquire(2, "row", S)      # compatible beside another holder
    table.acquire(1, "row", S)      # already covered
    table.acquire(3, "other", X)
    assert built == []
    table.acquire(4, "row", X)      # has to queue
    assert built == [1]


# ------------------------------------------------------------------ timing
def _time_lock_tables(n=200_000, repeats=5):
    import time

    out = {}
    for name, cls in (("reference", ReferenceLockTable), ("LockTable", LockTable)):
        env = Environment()
        table = cls(env, deadlock_timeout_ms=1200.0)
        best = float("inf")
        for _ in range(repeats):
            env._ready.clear()
            start = time.perf_counter()
            for i in range(n):
                key = ("inodes", i & 1023)
                table.acquire(i, key, X)
                table.release(i, key)
            best = min(best, time.perf_counter() - start)
        out[name] = best / n * 1e6
    return out


def _time_chain_hop_copy(n=500_000, repeats=5):
    import dataclasses
    import timeit

    from repro.ndb.messages import ChainPrepare
    from repro.types import NodeAddress, NodeKind

    # The payload as it was: dict-backed, forwarded through its __dict__.
    OldChainPrepare = dataclasses.make_dataclass(
        "OldChainPrepare", [f.name for f in dataclasses.fields(ChainPrepare)]
    )
    nodes = tuple(NodeAddress(NodeKind.NDB_DATANODE, i) for i in range(3))
    args = (7, 0, "inodes", (1, "d"), 1, 3, object(), nodes, 0, nodes[0])
    old, cp = OldChainPrepare(*args), ChainPrepare(*args)

    def reference():
        return OldChainPrepare(**{**old.__dict__, "hop": old.hop + 1})

    def positional():
        return ChainPrepare(
            cp.txid, cp.seq, cp.table, cp.pk, cp.partition_key, cp.partition,
            cp.value, cp.chain, cp.hop + 1, cp.tc,
        )

    return {
        fn.__name__: min(timeit.repeat(fn, number=n, repeat=repeats)) / n * 1e6
        for fn in (reference, positional)
    }


if __name__ == "__main__":
    for label, timings in (
        ("uncontended X acquire + release", _time_lock_tables()),
        ("chain-hop copy", _time_chain_hop_copy()),
    ):
        print(label + ": " + ", ".join(f"{k} {v:.2f} us" for k, v in timings.items()))
