"""Roll a cProfile run up to the packages under ``src/repro/``.

Each Python function's self time goes to the layer its file lives in.
Built-in / C calls (``heappush``, dict methods, ``generator.send``) have
no file: their self time is charged to the layer of the *calling*
function, read off the profiler's caller->callee edges.  Whatever is left
(stdlib Python, ``repro/types.py``, ``repro/errors.py``, the harness, and
C calls made by those) is ``other``.  The layer times therefore sum to the
profiler's total exactly; callers compare that total with the window wall.

cProfile charges its own per-call overhead to the caller's self time, so
shares lean towards call-heavy code: they are attribution, not absolute
times.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = ["LAYERS", "OTHER", "LayerTable", "layer_of", "rollup"]

# The packages on the serving path, in the order the tables print them.
LAYERS = ("sim", "net", "ndb", "hopsfs", "cephfs", "workloads", "metrics")
OTHER = "other"


def layer_of(filename: str, package_dir: str) -> str:
    """``<package_dir>/<layer>/...`` -> layer; anything else -> ``other``."""
    prefix = package_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return OTHER
    head, sep, _rest = filename[len(prefix):].partition(os.sep)
    return head if sep and head in LAYERS else OTHER


@dataclass
class LayerTable:
    self_s: dict = field(default_factory=lambda: dict.fromkeys(LAYERS + (OTHER,), 0.0))
    calls: dict = field(default_factory=lambda: dict.fromkeys(LAYERS + (OTHER,), 0))

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def share(self, layer: str) -> float:
        total = self.total_s
        return self.self_s[layer] / total if total else 0.0

    def top(self, n: int = 3) -> list:
        return sorted(LAYERS + (OTHER,), key=lambda l: -self.self_s[l])[:n]


def rollup(entries, package_dir: str) -> LayerTable:
    """``entries`` is ``cProfile.Profile.getstats()``: per function ``code``
    (a code object, or a ``str`` for a C call), ``inlinetime``,
    ``callcount`` and ``calls`` (the same three per callee)."""
    table = LayerTable()
    c_total = c_charged = 0.0
    c_calls = c_calls_charged = 0
    for entry in entries:
        if isinstance(entry.code, str):
            c_total += entry.inlinetime
            c_calls += entry.callcount
            continue
        layer = layer_of(entry.code.co_filename, package_dir)
        table.self_s[layer] += entry.inlinetime
        table.calls[layer] += entry.callcount
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                table.self_s[layer] += callee.inlinetime
                table.calls[layer] += callee.callcount
                c_charged += callee.inlinetime
                c_calls_charged += callee.callcount
    # C calls made by C calls (sorted() -> key function's builtins) and by
    # the profiler's own top level have no Python caller edge.
    table.self_s[OTHER] += c_total - c_charged
    table.calls[OTHER] += c_calls - c_calls_charged
    return table
