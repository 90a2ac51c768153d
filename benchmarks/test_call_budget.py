"""Call-count budget: the regression gate that has no noise.

    python -m pytest benchmarks/test_call_budget.py        # check
    python3 benchmarks/repin.py [--check] call_budget      # the same, or re-pin

``python3 bench_e2e/run.py --workload W --seed 0 --quick --trace 1`` counts,
per ``src/repro/<layer>/``, the function calls (Python and C) its profiled
pass makes per completed op, and the kernel events and network messages
per op.  For one seed and one interpreter version those repeat to the last
digit, so unlike a host time they can be gated tightly:

* a layer's ``calls_per_op`` may not rise more than 0.5 % above
  ``benchmarks/results/call_budget.json`` (it may fall: re-pin to bank the
  saving);
* ``sim.events_per_op`` and ``net.messages_per_op`` must equal the record
  exactly — they move only when the simulated schedule moves.

The file is the ``call_budget`` pin of ``benchmarks/pins.py``: its rule
(:func:`benchmarks.pins.ceiling`) lives there, :func:`record` produces it.

The counts include C calls, which CPython versions make differently: the
record is for the 3.11 the CI jobs pin.  ``--quick`` windows are for
counting only; their host times are never compared with anything.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from .pins import PINS, ROOT

EXACT = ("sim.events_per_op", "net.messages_per_op")
CALLS_SUFFIX = ".calls_per_op"


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


def budget_file(command: str, measure) -> dict:
    """A whole budget file: ``measure`` of every workload of ``BENCHMARK.json``."""
    return {
        "command": command,
        "python": ".".join(map(str, sys.version_info[:2])),
        "workloads": {workload: measure(workload) for workload in _workloads()},
    }


def record() -> dict:
    return budget_file("python3 bench_e2e/run.py --workload W --seed 0 --quick --trace 1", measure)


def check_budget(pin_name: str, workload: str, live: dict) -> None:
    """Hold one workload's live counts to its share of the pinned file."""
    pin = PINS[pin_name]
    problems = pin.problems(pin.read()["workloads"][workload], live)
    assert not problems, (
        f"{workload} is over its budget (deliberate? "
        f"python3 benchmarks/repin.py {pin_name}):\n  " + "\n  ".join(problems)
    )


@pytest.mark.parametrize("workload", _workloads())
def test_call_budget(workload):
    check_budget("call_budget", workload, measure(workload))
