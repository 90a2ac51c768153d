"""Command line of the benchmark.

``--workload NAME --seed N --seconds S --trace 0|1`` is the driver's
contract: one workload in this process, every metric printed by name with
its unit, the output checks, and one JSON result object as the last line
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  Without ``--workload`` all four workloads run, each pass
in its own fresh subprocess and one at a time, followed by the layer
table and the cross-pass checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from repro.experiments.perf import kernel_microbench
from repro.workloads.namespace import generate_namespace

from .calibration import Spin
from .harness import NAMESPACE, make_generator, run_repetition
from .layers import LAYERS, OTHER
from .workloads import QUICK_FACTOR, SERVERS, WINDOW_FACTOR, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

TIMED_REPS = 5  # at least; more until the windows add up to --seconds
QUICK_REPS = 2  # also the untraced repetitions of a --trace 1 run
MAX_FAILED_SHARE = 0.03
LAYER_SUM_TOLERANCE = 0.02
GEN_CALLS = 100_000
DETAIL_PREFIX = "#detail "


class Checks:
    """Output checks; any failure makes the command exit non-zero."""

    def __init__(self):
        self.rows = []

    def add(self, name: str, ok: bool, note: str = "") -> None:
        self.rows.append({"check": name, "ok": bool(ok), "note": note})
        print(f"check {'ok  ' if ok else 'FAIL'} {name}{'  ' + note if note else ''}")

    @property
    def ok(self) -> bool:
        return all(row["ok"] for row in self.rows)


def _timed_repetitions(workload, seed, spin, quick, min_reps, seconds):
    """One discarded repetition (quick size: it is there to warm the
    interpreter, not the model), then timed ones until there are
    ``min_reps`` and their windows add up to ``seconds`` of wall time."""
    run_repetition(workload, seed, spin, quick=True)
    reps = []
    while len(reps) < min_reps or sum(r["window_raw_s"] for r in reps) < seconds:
        reps.append(run_repetition(workload, seed, spin, quick))
    return reps


def _check_outputs(checks, workload, reps) -> int:
    """Checks every repetition must pass; returns the unexplained failures
    of the first one (the result line's ``failed``)."""
    first = reps[0]
    checks.add("digest identical across repetitions",
               all(r["digest"] == first["digest"] for r in reps),
               f"{first['digest'][:16]} x{len(reps)}")
    checks.add("completed > 0", first["completed"] > 0, str(first["completed"]))
    attempted = first["completed"] + first["failed"]
    share = first["failed"] / attempted if attempted else 1.0
    checks.add(f"failed share <= {MAX_FAILED_SHARE}", share <= MAX_FAILED_SHARE, f"{share:.4f}")
    unexplained = sum(n for error, n in first["failed_by_error"].items()
                      if error not in workload.race_errors)
    checks.add("every failed op is a declared generator race", unexplained == 0,
               json.dumps(first["failed_by_error"]))
    if workload.verify_mkdirs:
        checks.add("fresh client stats acked mkdirs",
                   all(r["mkdirs_found"] == r["mkdirs_sampled"] >= 64
                       and r["failed_anywhere"] == 0 for r in reps),
                   f"{first['mkdirs_found']}/{first['mkdirs_sampled']}")
    return unexplained


def _host_samples(reps) -> dict:
    """One sample per timed repetition of each host-time metric."""
    return {
        "host_us_per_op": [1e6 * r["window_s"] / r["completed"] for r in reps],
        "host_events_per_s": [r["events"] / r["window_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
    }


def _end_to_end(reps) -> tuple:
    """(metrics, host-sample table) from the timed repetitions."""
    first = reps[0]
    samples = _host_samples(reps)
    metrics = {name: median(values) for name, values in samples.items()}
    metrics.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_throughput_ops_s": first["sim"]["throughput_ops_s"],
        "sim_mean_ms": first["sim"]["mean_ms"],
        "sim_p99_ms": first["sim"]["p99_ms"],
        "sim_success_share": first["completed"] / (first["completed"] + first["failed"]),
        "sim_cross_az_bytes_per_op": first["sim"]["cross_az_bytes_per_op"],
    })
    spread = {}
    for name, values in samples.items():
        q1, _q2, q3 = quantiles(values, n=4)
        spread[name] = {"q1": q1, "q3": q3, "n": len(values)}
    return metrics, spread


def _generator_us_per_op(workload, seed) -> float:
    namespace = generate_namespace(seed=seed, **NAMESPACE)
    generator = make_generator(workload, namespace, seed)
    clients = workload.clients_per_server * SERVERS
    start = time.perf_counter()
    for i in range(GEN_CALLS):
        generator.next_op(client_id=i % clients)
    return 1e6 * (time.perf_counter() - start) / GEN_CALLS


def _per_layer(checks, workload, seed, spin, quick, reps) -> tuple:
    """(metrics, layer-table summary) from the untraced repetitions plus
    one profiled and one ObsContext run of the same size."""
    first = reps[0]
    ops = first["completed"]
    window_s = median(r["window_s"] for r in reps)
    host = {name: median(values) for name, values in _host_samples(reps).items()}

    profiled = run_repetition(workload, seed, spin, quick, trace="profile")
    table = profiled["layer_table"]
    gap = abs(table.total_s - profiled["window_raw_s"]) / profiled["window_raw_s"]
    checks.add(f"layer self times sum to profiled wall within {LAYER_SUM_TOLERANCE:.0%}",
               gap <= LAYER_SUM_TOLERANCE, f"{gap:.4%}; top: {', '.join(table.top())}")
    checks.add("profiled run reproduces the sim digest", profiled["digest"] == first["digest"])
    observed = run_repetition(workload, seed, spin, quick, trace="obs")
    neutral = observed["digest"] == first["digest"]
    checks.add("obs run reproduces the sim digest", neutral)

    horizon = 500.0 * (QUICK_FACTOR if quick else 1.0)
    ceiling = median(kernel_microbench(horizon_ms=horizon, repeats=3)["events_per_sec_runs"])

    metrics = dict(first["layer_counters"])
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = table.share(layer)
        metrics[f"{layer}.self_us_per_op"] = table.share(layer) * host["host_us_per_op"]
        metrics[f"{layer}.calls_per_op"] = table.calls[layer] / ops
    metrics.update(observed["obs"])
    metrics.update({
        "sim.kernel_only_events_per_s": ceiling,
        "sim.kernel_gap_ratio": ceiling / host["host_events_per_s"],
        "workloads.gen_us_per_op": _generator_us_per_op(workload, seed),
        "obs.trace_overhead_ratio": observed["window_s"] / window_s,
        "obs.schedule_neutral": int(neutral),
        "host.other_self_share": table.share(OTHER),
        "host.profile_overhead_ratio": profiled["window_s"] / window_s,
        "host.cpu_wall_ratio": (sum(r["window_raw_cpu_s"] for r in reps)
                                / sum(r["window_raw_s"] for r in reps)),
        "host.machine_speed": median(r["machine_speed"] for r in reps),
        "experiments.warmup_s": median(r["phases_s"]["warmup"] for r in reps),
    })
    for phase in ("build", "install", "ready", "clients"):
        metrics[f"experiments.setup_{phase}_s"] = median(r["phases_s"][phase] for r in reps)
    summary = {
        "profiled_raw_s": profiled["window_raw_s"],
        "self_s": table.self_s,
        "top": table.top(),
    }
    return metrics, summary


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: int,
                 quick: bool) -> int:
    """The driver's contract for one workload; returns the exit code.
    ``spec`` is ``BENCHMARK.json``, the one place metric names and units live."""
    workload = WORKLOADS[name]
    checks = Checks()
    spin = Spin()
    if trace or quick:
        reps = _timed_repetitions(workload, seed, spin, quick, QUICK_REPS, 0.0)
    else:
        reps = _timed_repetitions(workload, seed, spin, quick, TIMED_REPS, seconds)
    unexplained = _check_outputs(checks, workload, reps)
    first = reps[0]
    detail = {
        "workload": name, "seed": seed, "trace": trace, "quick": quick,
        "window_factor": WINDOW_FACTOR, "window_sim_ms": first["window_ms"],
        "repetitions": len(reps), "digest": first["digest"],
        "completed": first["completed"], "failed": first["failed"],
        "failed_by_error": first["failed_by_error"],
        "sim_p50_ms": first["sim"]["p50_ms"],
        "machine_speed": [r["machine_speed"] for r in reps],
        "raw_host_us_per_op": median(1e6 * r["window_raw_s"] / r["completed"] for r in reps),
    }
    if trace:
        metrics, detail["layers"] = _per_layer(checks, workload, seed, spin, quick, reps)
        declared = spec["per_layer"]
    else:
        metrics, detail["host_spread"] = _end_to_end(reps)
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {set(names) ^ set(metrics)}")

    flag = "  [quick: never compare with a full run]" if quick else ""
    print(f"workload {name}  seed {seed}  {len(reps)} timed repetitions  "
          f"window {first['window_ms']:g} sim-ms  {first['completed']} ops "
          f"(p99 from {first['completed']} samples){flag}")
    for m in declared:
        line = f"{m['name']:<42} {metrics[m['name']]:>16.6g} {m['unit']:<9} {m['better']}"
        spread = detail.get("host_spread", {}).get(m["name"])
        if spread:
            line += f"  q1 {spread['q1']:.6g}  q3 {spread['q3']:.6g}  n {spread['n']}"
        print(line)
    detail["checks"] = checks.rows
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps({
        "correct": checks.ok,
        "attempted": first["completed"] + first["failed"],
        "failed": unexplained,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if checks.ok else 1


def _child(name: str, seed: int, seconds: float, trace: int, quick: bool) -> tuple:
    """One pass of one workload in a fresh interpreter; (detail, result)."""
    argv = [sys.executable, str(ROOT / "bench_e2e" / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        argv.append("--quick")
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.splitlines()
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith(DETAIL_PREFIX):
        return None, None
    return json.loads(lines[-2][len(DETAIL_PREFIX):]), json.loads(lines[-1])


def run_all(seed: int, seconds: float, quick: bool, out) -> int:
    """Every workload, both passes, one subprocess at a time (the box has
    two cores and the simulator is single-threaded)."""
    checks = Checks()
    artifact = {"seed": seed, "quick": quick, "window_factor": WINDOW_FACTOR, "workloads": {}}
    shares = {}
    for name in WORKLOADS:
        passes = {}
        for trace in (0, 1):
            print(f"\n== {name}  --trace {trace} ==")
            detail, result = _child(name, seed, seconds, trace, quick)
            checks.add(f"{name} --trace {trace} passed its checks",
                       result is not None and result["correct"])
            if result is not None:
                passes[trace] = {"detail": detail, "result": result}
        if len(passes) == 2:
            checks.add(f"{name} traced pass reproduces the untraced sim digest",
                       passes[0]["detail"]["digest"] == passes[1]["detail"]["digest"])
            layer_metrics = passes[1]["result"]["metrics"]
            shares[name] = {layer: layer_metrics[f"{layer}.self_share"]["value"]
                            for layer in LAYERS}
            shares[name][OTHER] = layer_metrics["host.other_self_share"]["value"]
        artifact["workloads"][name] = passes

    if len(shares) == len(WORKLOADS):
        print("\nhost self-time share by layer (profiled window; attribution, not time)")
        print(f"{'':<16}" + "".join(f"{layer:>10}" for layer in LAYERS + (OTHER,)))
        for name, row in shares.items():
            print(f"{name:<16}" + "".join(f"{row[layer]:>10.3f}" for layer in LAYERS + (OTHER,)))
    artifact["checks"] = checks.rows
    if out:
        Path(out).write_text(json.dumps(artifact, indent=1, sort_keys=True) + "\n")
    print(f"\n{'all checks passed' if checks.ok else 'CHECKS FAILED'}"
          f"{'  [quick]' if quick else ''}")
    return 0 if checks.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench_e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="host seconds of measured windows per --trace 0 run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help=f"ISSUE.md windows and warm-ups x {QUICK_FACTOR}, {QUICK_REPS} "
                             "repetitions: smoke use only")
    parser.add_argument("--out", help="all-workload mode: write the JSON artifact here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    if args.workload:
        return run_workload(spec, args.workload, args.seed, seconds, args.trace, args.quick)
    return run_all(args.seed, seconds, args.quick, args.out)
