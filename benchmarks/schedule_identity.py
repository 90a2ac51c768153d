#!/usr/bin/env python3
"""Schedule identity of two checkouts: same seed, same simulated run?

    python3 benchmarks/schedule_identity.py [--chaos] BASE_TREE [HEAD_TREE]

Runs ``python3 bench_e2e/run.py --workload W --seed 0 --quick --trace 0``
for every workload of ``BENCHMARK.json`` in both trees (HEAD_TREE defaults
to the tree this file is in) and prints, side by side, the window digest
and the ``completed`` / ``failed`` / ``failed_by_error`` counts from each
run's ``#detail`` line.  Exits 1 on any difference.

A host-only change (everything a "bit-identical schedules" PR claims) must
print four identical rows; a change that moves the model on purpose fails
here and says so in its description.  ``--quick`` windows are for identity
only: the host times of these runs are never compared with anything.

``--chaos`` compares the fault-injection runs instead: for every scenario
of ``repro.chaos.SCENARIOS`` on ``hopsfs-cl-3-3``, ``hopsfs-3-3`` and
``cephfs``, plus the two ``--listing-cache`` runs of the CI chaos matrix,
``python -m repro chaos SCENARIO --setup SLUG --json F`` in both trees
(~1 s each) must give the same exit code, ``dispatch_hash``, ``completed``
and ``failed``.  A scenario a setup does not support (elastic membership
on CephFS) is a row too: exit 2 (``unsupported: <reason>`` on stderr), no
artifact, on both sides — exit 1 is kept for a red invariant.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

DETAIL_PREFIX = "#detail "
FIELDS = ("digest", "completed", "failed", "failed_by_error")
CHAOS_SETUPS = ("hopsfs-cl-3-3", "hopsfs-3-3", "cephfs")
CHAOS_FIELDS = ("dispatch_hash", "completed", "failed")
# The chaos-matrix CI job's two listing-cache runs.
CHAOS_LISTING_CACHE = (("gray-degraded-link", "hopsfs-cl-3-3"),
                       ("rolling-namenode-restarts", "hopsfs-cl-3-3"))
_REPRO_ENV = {**os.environ, "PYTHONPATH": "src"}  # `python -m repro` from a tree's root


def _detail(tree: pathlib.Path, workload: str) -> dict:
    out = subprocess.run(
        ["python3", "bench_e2e/run.py", "--workload", workload,
         "--seed", "0", "--quick", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if out.returncode != 0:
        sys.exit(f"{tree}: {workload} exited {out.returncode}\n{out.stdout}{out.stderr}")
    lines = [line for line in out.stdout.splitlines() if line.startswith(DETAIL_PREFIX)]
    if not lines:
        sys.exit(f"{tree}: {workload} printed no {DETAIL_PREFIX.strip()} line")
    detail = json.loads(lines[-1][len(DETAIL_PREFIX):])
    return {field: detail[field] for field in FIELDS}


def _chaos_run(tree: pathlib.Path, scenario: str, setup: str, flags: tuple) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        artifact = pathlib.Path(tmp) / "chaos.json"
        out = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", scenario, "--setup", setup,
             "--json", str(artifact), *flags],
            cwd=tree, capture_output=True, text=True, env=_REPRO_ENV,
        )
        doc = json.loads(artifact.read_text()) if artifact.exists() else {}
    return {"exit": out.returncode, **{field: doc.get(field) for field in CHAOS_FIELDS}}


def _chaos_scenarios(tree: pathlib.Path) -> list[str]:
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.chaos import SCENARIOS; print('\\n'.join(SCENARIOS))"],
        cwd=tree, capture_output=True, text=True, check=True, env=_REPRO_ENV,
    )
    return out.stdout.split()


def _compare_chaos(base: pathlib.Path, head: pathlib.Path) -> int:
    runs = [(scenario, setup, ()) for scenario in _chaos_scenarios(head)
            for setup in CHAOS_SETUPS]
    runs += [(scenario, setup, ("--listing-cache",))
             for scenario, setup in CHAOS_LISTING_CACHE]
    differing = []
    print(f"{'scenario':<30} {'setup':<14} {'tree':<5} {'exit':>4} {'dispatch_hash':<17} "
          f"{'completed':>9} {'failed':>6}")
    for scenario, setup, flags in runs:
        label = scenario + (" +lc" if flags else "")
        rows = {"base": _chaos_run(base, scenario, setup, flags),
                "head": _chaos_run(head, scenario, setup, flags)}
        for side, row in rows.items():
            shown = {key: "-" if value is None else value for key, value in row.items()}
            print(f"{label:<30} {setup:<14} {side:<5} {shown['exit']:>4} "
                  f"{shown['dispatch_hash'][:16]:<17} {shown['completed']:>9} "
                  f"{shown['failed']:>6}")
        if rows["base"] != rows["head"]:
            differing.append(f"{label} on {setup}")
    if differing:
        print(f"chaos runs DIFFER: {'; '.join(differing)}")
        return 1
    print(f"chaos runs identical on all {len(runs)} scenario x setup pairs")
    return 0


def main(argv: list[str]) -> int:
    chaos = "--chaos" in argv
    argv = [arg for arg in argv if arg != "--chaos"]
    if not 1 <= len(argv) <= 2:
        sys.exit(__doc__)
    base = pathlib.Path(argv[0]).resolve()
    head = (pathlib.Path(argv[1]) if len(argv) == 2
            else pathlib.Path(__file__).parent.parent).resolve()
    if chaos:
        return _compare_chaos(base, head)
    with open(head / "BENCHMARK.json") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    differing = []
    print(f"{'workload':<15} {'tree':<5} {'digest':<17} {'completed':>9} {'failed':>6}  failed_by_error")
    for workload in workloads:
        rows = {"base": _detail(base, workload), "head": _detail(head, workload)}
        for side, row in rows.items():
            print(f"{workload:<15} {side:<5} {row['digest'][:16]:<17} {row['completed']:>9} "
                  f"{row['failed']:>6}  {json.dumps(row['failed_by_error'], sort_keys=True)}")
        if rows["base"] != rows["head"]:
            differing.append(workload)
    if differing:
        print(f"schedules DIFFER on: {', '.join(differing)}")
        return 1
    print(f"schedules identical on all {len(workloads)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
