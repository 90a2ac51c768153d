"""The payload rule: NDB wire payloads and per-row records are slotted."""

import dataclasses

import pytest

from repro.ndb import datanode, locks, messages, store
from repro.ndb.messages import ChainCommit, ChainPrepare
from repro.ndb.schema import LockMode
from repro.types import NodeAddress, NodeKind

from .conftest import build_harness

PAYLOADS = [getattr(messages, name) for name in messages.__all__]
RECORDS = [
    datanode._RowOp, datanode._TcTxn, store._Prepared,
    locks._LockRequest, locks._RowLock,
]
_NODES = tuple(NodeAddress(NodeKind.NDB_DATANODE, i) for i in range(1, 4))
# One plausible value per field name, enough to build every class.
_VALUES = {
    "txid": 7, "seq": 2, "table": "t", "pk": (1, "a"), "partition_key": 1,
    "partition": 3, "value": {"v": 1}, "chain": _NODES, "hop": 1, "tc": _NODES[0],
    "lock": LockMode.SHARED, "role": 0, "client_az": 2, "want_completed": True,
    "keys": (("t", 1),), "error": "boom", "sender": _NODES[1], "epoch": 4,
    "requester": _NODES[2], "component": frozenset(_NODES), "mode": LockMode.EXCLUSIVE,
    "event": None, "holders": {}, "queue": (), "ops": {}, "read_locks": {},
}


def _build(cls):
    required = [
        f.name for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    return cls(*(_VALUES[name] for name in required))


def test_the_17_wire_payloads_are_all_listed():
    assert len(PAYLOADS) == 17
    assert all(dataclasses.is_dataclass(cls) for cls in PAYLOADS)


@pytest.mark.parametrize("cls", PAYLOADS + RECORDS, ids=lambda cls: cls.__name__)
def test_no_instance_dict(cls):
    instance = _build(cls)
    assert not hasattr(instance, "__dict__")
    with pytest.raises(AttributeError):
        instance.not_a_field = 1


def _forwarded(kind):
    """Capture the payloads of ``kind`` the datanodes put on the wire."""
    h = build_harness(num_datanodes=3, replication=3, azs=(1, 2, 3))
    seen = []
    for dn in h.cluster.datanodes.values():
        send = dn._send

        def spy(dst, msg_kind, payload, size, _send=send):
            if msg_kind == kind:
                seen.append(payload)
            _send(dst, msg_kind, payload, size)

        dn._send = spy

    def body():
        txn = h.api.transaction("t", 1)
        yield from txn.write("t", 1, {"v": 1})
        yield from txn.commit()

    h.run(body())
    return seen


@pytest.mark.parametrize(
    "kind, cls, step", [("chain_prepare", ChainPrepare, 1), ("chain_commit", ChainCommit, -1)]
)
def test_forwarded_chain_payload_equals_its_source_except_hop(kind, cls, step):
    hops = _forwarded(kind)
    assert len(hops) >= 2 and all(type(p) is cls for p in hops)
    for source, forwarded in zip(hops, hops[1:]):
        assert forwarded is not source
        assert forwarded.hop == source.hop + step
        assert dataclasses.replace(forwarded, hop=source.hop) == source
