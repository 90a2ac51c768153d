"""File-path -> layer roll-up and caller charging, on a synthetic profile."""

from types import SimpleNamespace as NS

import pytest

from bench_e2e.layers import OTHER, layer_of, rollup

PKG = "/x/src/repro"


def _code(path):
    return NS(co_filename=path)


def _entry(code, inlinetime, callcount=1, calls=()):
    return NS(code=code, inlinetime=inlinetime, callcount=callcount, calls=list(calls))


@pytest.mark.parametrize("path, layer", [
    (f"{PKG}/sim/kernel.py", "sim"),
    (f"{PKG}/ndb/datanode.py", "ndb"),
    (f"{PKG}/hopsfs/namenode.py", "hopsfs"),
    (f"{PKG}/types.py", OTHER),            # module directly under repro/
    (f"{PKG}/chaos/injector.py", OTHER),   # off the serving path
    (f"{PKG}_extra/sim/kernel.py", OTHER),  # prefix match must stop at a separator
    ("/usr/lib/python3.11/random.py", OTHER),
    ("~", OTHER),
])
def test_layer_of(path, layer):
    assert layer_of(path, PKG) == layer


def test_c_calls_are_charged_to_the_calling_layer():
    heappush = "<built-in method _heapq.heappush>"
    dict_get = "<method 'get' of 'dict' objects>"
    entries = [
        _entry(_code(f"{PKG}/sim/kernel.py"), 1.0, 10,
               calls=[_entry(heappush, 0.5, 7), _entry(_code(f"{PKG}/net/network.py"), 9.9, 3)]),
        _entry(_code(f"{PKG}/net/network.py"), 2.0, 3,
               calls=[_entry(heappush, 0.25, 2), _entry(dict_get, 0.125, 4)]),
        _entry(_code("/usr/lib/python3.11/random.py"), 0.5, 1,
               calls=[_entry(dict_get, 0.0625, 1)]),
        # The C functions' own rows: totals over every caller, including
        # 0.0625 s of dict.get reached from another C call (no Python edge).
        _entry(heappush, 0.75, 9),
        _entry(dict_get, 0.25, 6),
    ]
    table = rollup(entries, PKG)
    assert table.self_s["sim"] == 1.0 + 0.5
    assert table.self_s["net"] == 2.0 + 0.25 + 0.125
    assert table.self_s[OTHER] == 0.5 + 0.0625 + 0.0625
    assert table.calls["sim"] == 10 + 7
    assert table.calls["net"] == 3 + 2 + 4
    assert table.calls[OTHER] == 1 + 1 + 1
    # Nothing lost, nothing double counted (callee *Python* edges are skipped).
    assert table.total_s == pytest.approx(1.0 + 2.0 + 0.5 + 0.75 + 0.25)
    assert table.top(2) == ["net", "sim"]
    assert table.share("ndb") == 0.0
