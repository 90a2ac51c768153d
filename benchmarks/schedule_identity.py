#!/usr/bin/env python3
"""Identity of two checkouts: same seed, same schedule — or at least the same result?

    python3 benchmarks/schedule_identity.py [--chaos | --paths] BASE_TREE [HEAD_TREE]

For every workload of ``BENCHMARK.json`` (HEAD_TREE defaults to the tree
this file is in) each tree runs twice at ``--quick`` size, seed 0:

* ``python3 bench_e2e/run.py --workload W --seed 0 --quick --trace 0`` gives
  the **schedule digest** — the window's kernel event count and sorted
  latencies, from the run's ``#detail`` line — with ``completed`` /
  ``failed`` / ``failed_by_error``;
* ``run_point`` on the same configuration (sizes read from the tree's
  ``bench_e2e/workloads.py``) gives the **result digest**: the multiset of
  the window's ``(op, start_ms, end_ms, ok)``, ``failed_by_error`` and the
  traffic matrix.  It does not see how many kernel events the run took or in
  which order same-instant entries were dispatched.

The exit code says which level held on every row:

    0  schedule-identical  (everything a "bit-identical schedules" PR claims)
    3  result-identical only: some schedule digest moved, no result did — what
       a change that removes or reorders same-instant kernel events must show
    1  results differ: the model moved; say so, and re-pin
       (``python3 benchmarks/repin.py``)

Under a row whose results differ, indented lines say how far they moved:
base -> head for ``completed``, ``failed`` and the simulated throughput, mean
and p99 latency of the ``--quick`` window, each delta also as a share of that
metric's bound in ``BENCHMARK.json`` (read, never written).  ``--quick``
windows are for identity only: the host times of these runs are never
compared with anything.

``--chaos`` compares the fault-injection runs instead: every cell of the
``chaos_matrix`` pin (``benchmarks/pins.py``: all ``chaos.SCENARIOS`` on all
nine setups, plus the two listing-cache runs), produced in process in both
trees by this tree's ``pins.chaos_matrix``.  A cell's schedule digest is its
``dispatch_hash``; its result is its verdict (``green`` / ``red`` /
``unsupported:<reason>``), the red invariants, ``completed`` and ``failed``.
Under a differing cell: its verdict change, if any, and ``completed`` /
``failed`` base -> head.

``--paths`` compares the 16 combinations of the four opt-in serving paths
(``robust``, ``async_commit``, ``elastic``, ``listing_cache``), produced in
process in both trees by :func:`path_rows`: ``HopsFS-CL (3,3)`` with 3 NNs,
seed 3, a 4 x 8 x 8 namespace, 24 closed-loop Spotify clients, a 60 ms
window, then a stop and 400 ms of drain (``elastic`` without the autoscaler,
membership refresh every 25 ms).  A row's schedule digest is the kernel's
event count with the window's sorted latencies; its result is ``completed``,
``failed`` and ``failed_by_error``.  Half of these combinations run in no
pinned artifact.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import subprocess
import sys

DETAIL_PREFIX = "#detail "
_HERE = pathlib.Path(__file__).resolve().parent

IDENTICAL, RESULT_IDENTICAL, DIFFERENT = 0, 3, 1
MEANING = {
    IDENTICAL: "schedule-identical: every schedule digest and every result equal",
    RESULT_IDENTICAL: "result-identical only: schedule digests moved, no result did",
    DIFFERENT: "results differ",
}


def classify(base: dict, head: dict) -> int:
    """The identity level of one row: both digests equal, only the result
    digest, or neither."""
    if base["result"] != head["result"]:
        return DIFFERENT
    return IDENTICAL if base["schedule"] == head["schedule"] else RESULT_IDENTICAL


def weakest(levels) -> int:
    """The exit code of a table: the weakest level any row reached."""
    levels = set(levels)
    if DIFFERENT in levels:
        return DIFFERENT
    return RESULT_IDENTICAL if RESULT_IDENTICAL in levels else IDENTICAL


def bounds_of(spec: dict) -> dict:
    """``{metric: (bound, better)}`` of ``BENCHMARK.json``'s end-to-end metrics."""
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


# What a differing row reports, in order.  ``completed`` / ``failed`` have no
# bound of their own (``sim_success_share`` bounds their ratio).
MOVED = ("verdict", "completed", "failed",
         "sim_throughput_ops_s", "sim_mean_ms", "sim_p99_ms")


def movement(base: dict, head: dict, bounds: dict) -> list:
    """How far one differing row moved: ``base -> head`` for each number the
    two rows carry, with its delta as a share of its bound where it has one."""
    lines = []
    for name in MOVED:
        if name not in base or name not in head:
            continue
        old, new = base[name], head[name]
        if not all(isinstance(value, (int, float)) for value in (old, new)):
            if old != new:  # a verdict, or a count a cell did not run to
                lines.append(f"{name}: {old} -> {new}")
            continue
        line = f"{name}: {old:.6g} -> {new:.6g}"
        if old:
            delta = (new - old) / old
            line += f"  ({delta:+.2%}"
            if name in bounds:
                bound, better = bounds[name]
                worse = delta > 0 if better == "lower" else delta < 0
                line += f", {abs(delta) / bound:.0%} of its {bound:.0%} bound"
                line += " worse" if worse else ""
            line += ")"
        lines.append(line)
    return lines


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# -- what runs inside a tree ----------------------------------------------------

def _in_tree(tree: pathlib.Path, call: str):
    """Evaluate ``call`` — an expression over this file (``schedule_identity``)
    and ``pins`` — in a child process that imports ``repro`` and ``bench_e2e``
    from ``tree``; the two modules themselves always come from this tree."""
    code = ("import json, sys; sys.path[:0] = ['src', '.']; sys.path.append(sys.argv[1]); "
            f"import pins, schedule_identity; print(json.dumps({call}))")
    out = subprocess.run([sys.executable, "-c", code, str(_HERE)],
                         cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{tree}: {call} exited {out.returncode}\n{out.stdout}{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def result_digest(workload: str) -> str:
    """The result digest of one benchmark workload (runs in the child)."""
    from bench_e2e.workloads import SERVERS, WORKLOADS
    from repro.experiments import RunConfig, run_point
    from repro.metrics.collectors import MetricsCollector

    ops = []
    record = MetricsCollector.record

    def tapped(self, result):
        if self._in_window(result.end_ms):
            ops.append((result.op.name, repr(result.start_ms), repr(result.end_ms), result.ok))
        record(self, result)

    MetricsCollector.record = tapped
    spec = WORKLOADS[workload]
    point = run_point(
        spec.setup, SERVERS,
        workload="spotify" if spec.single_op is None else "single", op=spec.single_op,
        config=RunConfig(clients_per_server=spec.clients_per_server,
                         warmup_ms=spec.warmup(True), window_ms=spec.window(True),
                         listing_cache=spec.cache_config()),
        keep_collector=True,
    )
    collector = point.extra["collector"]
    assert len(ops) == collector.completed + collector.failed
    traffic = point.extra["harness"].network.traffic
    return _digest({
        "ops": sorted(ops),
        "failed_by_error": point.failed_by_error,
        "az_pair_bytes": sorted((list(pair), n) for pair, n in traffic.az_pair_bytes.items()),
        "messages": traffic.messages,
    })


def _detail(tree: pathlib.Path, workload: str) -> tuple:
    """The run's ``#detail`` object and the metric values of its result line."""
    out = subprocess.run(
        ["python3", "bench_e2e/run.py", "--workload", workload,
         "--seed", "0", "--quick", "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if out.returncode != 0:
        sys.exit(f"{tree}: {workload} exited {out.returncode}\n{out.stdout}{out.stderr}")
    lines = out.stdout.splitlines()
    details = [line for line in lines if line.startswith(DETAIL_PREFIX)]
    if not details:
        sys.exit(f"{tree}: {workload} printed no {DETAIL_PREFIX.strip()} line")
    metrics = json.loads(lines[-1])["metrics"]
    return (json.loads(details[-1][len(DETAIL_PREFIX):]),
            {name: metric["value"] for name, metric in metrics.items()})


# The ``--paths`` run (see the module docstring).
PATH_NAMES = ("async_commit", "elastic", "listing_cache", "robust")
PATH_SETUP, PATH_SERVERS, PATH_SEED, PATH_CLIENTS = "HopsFS-CL (3,3)", 3, 3, 24
PATH_WINDOW_MS, PATH_DRAIN_MS = 60.0, 400.0


def path_rows() -> dict:
    """``{combination: row}`` of all 16 path combinations (runs in the child)."""
    from repro.experiments.setups import SETUPS
    from repro.hopsfs import AsyncCommitConfig, ElasticConfig, ListingCacheConfig, RobustConfig
    from repro.metrics.collectors import MetricsCollector
    from repro.workloads.driver import ClosedLoopDriver
    from repro.workloads.namespace import generate_namespace
    from repro.workloads.spotify import SpotifyWorkload

    on = {
        "async_commit": AsyncCommitConfig(),
        "elastic": ElasticConfig(autoscale=False, membership_refresh_ms=25.0),
        "listing_cache": ListingCacheConfig(),
        "robust": RobustConfig(),
    }
    rows = {}
    for n in range(len(PATH_NAMES) + 1):
        for combo in itertools.combinations(PATH_NAMES, n):
            harness = SETUPS[PATH_SETUP].build(
                PATH_SERVERS, seed=PATH_SEED, **{name: on[name] for name in combo})
            env = harness.env
            namespace = generate_namespace(
                num_top_dirs=4, dirs_per_top=8, files_per_dir=8, seed=PATH_SEED)
            harness.install(namespace)
            env.run_process(harness.ready(), until=env.now + 60_000)
            collector = MetricsCollector()
            collector.open_window(env.now)
            driver = ClosedLoopDriver(env, harness.make_clients(PATH_CLIENTS),
                                      SpotifyWorkload(namespace, seed=PATH_SEED), collector)
            driver.start()
            env.run(until=env.now + PATH_WINDOW_MS)
            driver.stop()
            env.run(until=env.now + PATH_DRAIN_MS)
            collector.close_window(env.now)
            rows["+".join(combo) or "none"] = {
                "schedule": _digest([env._seq, sorted(collector.latencies_ms)]),
                "completed": collector.completed,
                "failed": collector.failed,
                "failed_by_error": dict(sorted(collector.failed_errors.items())),
            }
    return rows


def _path_rows(tree: pathlib.Path) -> dict:
    rows = {}
    for key, row in _in_tree(tree, "schedule_identity.path_rows()").items():
        result = [row["completed"], row["failed"], row["failed_by_error"]]
        rows[key] = {
            "schedule": row["schedule"],
            "result": _digest(result),
            "shown": f"{row['completed']:>9} {row['failed']:>6}  "
                     f"{json.dumps(row['failed_by_error'], sort_keys=True)}",
            "numbers": {"completed": row["completed"], "failed": row["failed"]},
        }
    return rows


# -- the tables -----------------------------------------------------------------

def _workload_row(tree: pathlib.Path, workload: str) -> dict:
    detail, metrics = _detail(tree, workload)
    return {
        "schedule": detail["digest"],
        "result": _in_tree(tree, f"schedule_identity.result_digest({workload!r})"),
        "shown": f"{detail['completed']:>9} {detail['failed']:>6}  "
                 f"{json.dumps(detail['failed_by_error'], sort_keys=True)}",
        "numbers": {"completed": detail["completed"], "failed": detail["failed"],
                    **{name: metrics[name] for name in MOVED if name in metrics}},
    }


def _chaos_rows(tree: pathlib.Path) -> dict:
    matrix = _in_tree(tree, "pins.chaos_matrix()")
    cells = dict(matrix["cells"])
    cells.update({f"{key} +lc": cell for key, cell in matrix["listing_cache_cells"].items()})
    rows = {}
    for key, cell in cells.items():
        shown = {name: "-" if value is None else value for name, value in cell.items()}
        rows[key] = {
            "schedule": cell["dispatch_hash"],
            "result": _digest([cell["verdict"], cell.get("red"), cell["completed"],
                               cell["failed"]]),
            "shown": f"{shown['completed']:>9} {shown['failed']:>6}  {cell['verdict']}"
                     f"{' ' + ', '.join(cell['red']) if 'red' in cell else ''}",
            "numbers": {name: cell[name] for name in ("verdict", "completed", "failed")},
        }
    return rows


_ABSENT = {"schedule": None, "result": "-",
           "shown": f"{'-':>9} {'-':>6}  (no such cell in this tree)", "numbers": {}}


def _compare(rows_of, keys, header: tuple, bounds: dict) -> int:
    """Print ``rows_of(side, key)`` of both trees side by side, and under a
    row whose results differ how far they moved; return the weakest identity
    level over ``keys``."""
    print(f"{header[0]:<44} {'tree':<5} {'schedule':<13} {'result':<13} "
          f"{'completed':>9} {'failed':>6}  {header[1]}")
    levels = {}
    for key in keys:
        rows = {side: rows_of(side, key) for side in ("base", "head")}
        for side, row in rows.items():
            print(f"{key:<44} {side:<5} {(row['schedule'] or '-')[:12]:<13} "
                  f"{row['result'][:12]:<13} {row['shown']}")
        levels[key] = classify(rows["base"], rows["head"])
        if levels[key] == DIFFERENT:
            for line in movement(rows["base"]["numbers"], rows["head"]["numbers"], bounds):
                print(f"    {line}")
    for level in (RESULT_IDENTICAL, DIFFERENT):
        moved = [key for key, reached in levels.items() if reached == level]
        if moved:
            print(f"{MEANING[level]}: {', '.join(moved)}")
    code = weakest(levels.values())
    print(f"exit {code} on {len(levels)} rows — {MEANING[code]}")
    return code


def main(argv: list[str]) -> int:
    chaos = "--chaos" in argv
    paths = "--paths" in argv
    argv = [arg for arg in argv if arg not in ("--chaos", "--paths")]
    if not 1 <= len(argv) <= 2 or chaos and paths:
        sys.exit(__doc__)
    trees = {
        "base": pathlib.Path(argv[0]).resolve(),
        "head": (pathlib.Path(argv[1]) if len(argv) == 2 else _HERE.parent).resolve(),
    }
    with open(trees["head"] / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = bounds_of(spec)
    if chaos or paths:
        produce = _chaos_rows if chaos else _path_rows
        tables = {side: produce(tree) for side, tree in trees.items()}
        header = ("scenario/setup", "verdict") if chaos else ("paths", "failed_by_error")
        return _compare(lambda side, key: tables[side].get(key, _ABSENT),
                        list(tables["head"]), header, bounds)
    workloads = [w["name"] for w in spec["workloads"]]
    return _compare(lambda side, key: _workload_row(trees[side], key), workloads,
                    ("workload", "failed_by_error"), bounds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
