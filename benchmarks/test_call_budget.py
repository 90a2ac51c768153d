#!/usr/bin/env python3
"""Call-count budget: the regression gate that has no noise.

    python -m pytest benchmarks/test_call_budget.py     # check
    python3 benchmarks/test_call_budget.py --record     # rewrite the record

``python3 bench_e2e/run.py --workload W --seed 0 --quick --trace 1`` counts,
per ``src/repro/<layer>/``, the function calls (Python and C) its profiled
pass makes per completed op, and the kernel events and network messages
per op.  For one seed and one interpreter version those repeat to the last
digit, so unlike a host time they can be gated tightly:

* a layer's ``calls_per_op`` may not rise more than 0.5 % above
  ``benchmarks/results/call_budget.json`` (it may fall: re-record to bank
  the saving);
* ``sim.events_per_op`` and ``net.messages_per_op`` must equal the record
  exactly — they move only when the simulated schedule moves.

The counts include C calls, which CPython versions make differently: the
record is for the 3.11 the CI jobs pin.  ``--quick`` windows are for
counting only; their host times are never compared with anything.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = ROOT / "benchmarks" / "results" / "call_budget.json"
EXACT = ("sim.events_per_op", "net.messages_per_op")
CALLS_SUFFIX = ".calls_per_op"
HEADROOM = 1.005


def _workloads() -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def measure(workload: str) -> dict:
    out = subprocess.run(
        ["python3", "bench_e2e/run.py", "--workload", workload,
         "--seed", "0", "--quick", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} exited {out.returncode}\n{out.stdout}{out.stderr}")
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {
        name: metrics[name]["value"]
        for name in sorted(metrics)
        if name in EXACT or name.endswith(CALLS_SUFFIX)
    }


def over_budget(live: dict, recorded: dict) -> list:
    """Every way ``live`` breaks the ``recorded`` budget, as printable lines."""
    problems = []
    for name, budget in recorded.items():
        value = live.get(name)
        if value is None:
            problems.append(f"{name}: not reported any more")
        elif name in EXACT:
            if value != budget:
                problems.append(f"{name}: {value!r} != recorded {budget!r}")
        elif value > budget * HEADROOM:
            problems.append(
                f"{name}: {value:.3f} > recorded {budget:.3f} (+{value / budget - 1:.2%})"
            )
    return problems


@pytest.mark.parametrize("workload", _workloads())
def test_call_budget(workload):
    with open(RECORD) as fh:
        recorded = json.load(fh)["workloads"][workload]
    problems = over_budget(measure(workload), recorded)
    assert not problems, (
        f"{workload} is over its call budget "
        f"(deliberate? python3 benchmarks/test_call_budget.py --record):\n  "
        + "\n  ".join(problems)
    )


def test_a_raised_count_or_a_moved_event_count_is_caught():
    recorded = {"ndb.calls_per_op": 100.0, "sim.events_per_op": 50.0}
    assert not over_budget({"ndb.calls_per_op": 100.4, "sim.events_per_op": 50.0}, recorded)
    assert not over_budget({"ndb.calls_per_op": 80.0, "sim.events_per_op": 50.0}, recorded)
    assert over_budget({"ndb.calls_per_op": 100.6, "sim.events_per_op": 50.0}, recorded)
    assert over_budget({"ndb.calls_per_op": 100.0, "sim.events_per_op": 49.9}, recorded)
    assert over_budget({"sim.events_per_op": 50.0}, recorded)


def main(argv: list) -> int:
    if argv != ["--record"]:
        sys.exit(__doc__)
    record = {
        "command": "python3 bench_e2e/run.py --workload W --seed 0 --quick --trace 1",
        "python": ".".join(map(str, sys.version_info[:2])),
        "workloads": {workload: measure(workload) for workload in _workloads()},
    }
    RECORD.write_text(json.dumps(record, indent=2) + "\n")
    print(f"recorded {RECORD.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
