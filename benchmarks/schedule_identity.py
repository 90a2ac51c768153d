#!/usr/bin/env python3
"""Schedule identity of two checkouts: same seed, same simulated run?

    python3 benchmarks/schedule_identity.py BASE_TREE [HEAD_TREE]

Runs ``python3 bench_e2e/run.py --workload W --seed 0 --quick --trace 0``
for every workload of ``BENCHMARK.json`` in both trees (HEAD_TREE defaults
to the tree this file is in) and prints, side by side, the window digest
and the ``completed`` / ``failed`` / ``failed_by_error`` counts from each
run's ``#detail`` line.  Exits 1 on any difference.

A host-only change (everything a "bit-identical schedules" PR claims) must
print four identical rows; a change that moves the model on purpose fails
here and says so in its description.  ``--quick`` windows are for identity
only: the host times of these runs are never compared with anything.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

DETAIL_PREFIX = "#detail "
FIELDS = ("digest", "completed", "failed", "failed_by_error")


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


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        sys.exit(__doc__)
    base = pathlib.Path(argv[0]).resolve()
    head = (pathlib.Path(argv[1]) if len(argv) == 2
            else pathlib.Path(__file__).parent.parent).resolve()
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
