#!/usr/bin/env python3
"""Alternating same-seed A/B pairs of the repo benchmark, and their report.

    python3 benchmarks/ab_pairs.py BASE_TREE HEAD_TREE --workload W --pairs N --seed0 S [--seconds 8]

Pair ``i`` runs ``python3 bench_e2e/run.py --workload W --seed S+i --trace 0
--seconds T`` once in each checkout, one process at a time; the base runs
first in even pairs and the head in odd ones, so a drift of the machine's
speed hits both sides alike.  Each run prints one line as it finishes; the
report follows:

* every end-to-end metric of ``BENCHMARK.json`` (read, never written):
  - host metrics: each side's median and quartiles, the base's IQR, the
    change of the medians, in how many pairs the head is lower, and the
    gap between the medians against the base's IQR;
  - simulated metrics: the medians and the range of the per-pair deltas;
* per pair, whether the ``sim_*`` metrics, the window digest, ``completed``
  and ``failed`` are identical (what a host-only change must show);
* the failed-op share of each side (``failed / (completed + failed)``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

DETAIL_PREFIX = "#detail "
_HERE = pathlib.Path(__file__).resolve().parent
SIDES = ("base", "head")


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its metrics plus digest/completed/failed."""
    cmd = [sys.executable, "bench_e2e/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0", "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    detail = next(json.loads(line[len(DETAIL_PREFIX):]) for line in lines
                  if line.startswith(DETAIL_PREFIX))
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update(digest=detail["digest"], completed=detail["completed"],
               failed=detail["failed"], unexplained=result["failed"])
    return row


def run_line(workload: str, seed: int, side: str, row: dict, metrics: list) -> str:
    values = " ".join(f"{name}={row[name]:.6g}" for name in metrics)
    return (f"{workload} seed={seed} {side}: {values} completed={row['completed']} "
            f"failed={row['failed']} digest={row['digest']}")


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def change(base: float, head: float) -> float:
    return (head - base) / base if base else 0.0


def report(workload: str, seeds: list, pairs: list, spec: dict) -> list:
    """The report's lines for ``pairs``: one ``{"base": row, "head": row}`` per seed."""
    n = len(pairs)
    out = [f"== {workload}: {n} pairs, seeds {seeds[0]}-{seeds[-1]}"]
    for metric in spec["end_to_end"]:
        name, lower_better = metric["name"], metric["better"] == "lower"
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        b_med, h_med = statistics.median(base), statistics.median(head)
        delta = change(b_med, h_med)
        worse = delta > metric["bound"] if lower_better else -delta > metric["bound"]
        flag = f"  WORSE THAN ITS {metric['bound']:.0%} BOUND" if worse else ""
        if name.startswith("sim_"):
            per_pair = [change(b, h) for b, h in zip(base, head)]
            out.append(f"  {name:<26} base median {b_med:.6g}  head median {h_med:.6g}  "
                       f"change {delta:+.3%}  per-pair deltas {min(per_pair):+.3%} .. "
                       f"{max(per_pair):+.3%}{flag}")
            continue
        b_q1, b_q3 = quartiles(base)
        h_q1, h_q3 = quartiles(head)
        iqr = b_q3 - b_q1
        lower = sum(h < b for b, h in zip(base, head))
        gap = abs(h_med - b_med)
        out.append(f"  {name:<18} base median {b_med:.4g} (q1 {b_q1:.4g} q3 {b_q3:.4g}, IQR "
                   f"{iqr:.4g})  head median {h_med:.4g} (q1 {h_q1:.4g} q3 {h_q3:.4g})  change "
                   f"{delta:+.2%}  head lower in {lower}/{n}  |gap| {gap:.4g} "
                   f"{'>' if gap > iqr else '<='} base IQR{flag}")
    sim = [m["name"] for m in spec["end_to_end"] if m["name"].startswith("sim_")]
    same = [all(p["base"][k] == p["head"][k] for k in sim + ["completed", "failed"])
            for p in pairs]
    digests = sum(p["base"]["digest"] == p["head"]["digest"] for p in pairs)
    out.append(f"  sim_*/completed/failed identical in {sum(same)}/{n} pairs "
               f"(digest too: {digests}/{n})")
    for seed, p, ok in zip(seeds, pairs, same):
        if not ok:
            out.append(f"    seed {seed} differs: completed {p['base']['completed']} -> "
                       f"{p['head']['completed']}, failed {p['base']['failed']} -> "
                       f"{p['head']['failed']}")
    shares = []
    for side in SIDES:
        failed = sum(p[side]["failed"] for p in pairs)
        total = failed + sum(p[side]["completed"] for p in pairs)
        unexplained = sum(p[side]["unexplained"] for p in pairs)
        shares.append(f"{side} {failed / total:.4%} ({unexplained} not declared races)")
    out.append("  failed-op share: " + ", ".join(shares))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=pathlib.Path, help="base checkout (the parent)")
    parser.add_argument("head", type=pathlib.Path, help="head checkout (the change)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=8)
    args = parser.parse_args(argv)
    spec = json.loads((_HERE.parent / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    seeds = list(range(args.seed0, args.seed0 + args.pairs))
    pairs = []
    for i, seed in enumerate(seeds):
        pair = {}
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            pair[side] = run_once(trees[side], args.workload, seed, args.seconds)
            print(run_line(args.workload, seed, side, pair[side], metrics), flush=True)
        pairs.append(pair)
    print()
    print("\n".join(report(args.workload, seeds, pairs, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
