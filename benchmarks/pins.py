"""The registry of pinned artifacts: one row per file, one producer, one rule.

A *pin* is a committed file that some gate compares a live run against:
the kernel goldens, the call budgets, the scale and monitor baselines,
``BENCH_kernel.json``, the chaos matrix and the figure tables behind
EXPERIMENTS.md.  ``PINS`` names, for each of them,

* the path of the file;
* the **one** function that produces its content — ``"module:function"``,
  the function the artifact's own test calls, resolved when it is needed so
  that importing this table imports nothing else;
* the rule a live value is held to: :func:`exact`, :func:`ceiling` ("may
  fall, +0.5 % up") or :func:`floor` ("never below");
* the keys that are machine-dependent (wall-clock rates, RSS): re-recorded
  whenever the artifact is written, never compared, and never by themselves
  a reason to write it (to refresh them alone, remove the file and re-pin it);
* what else a write owes: ``BENCH_kernel.json`` appends its headline numbers
  to ``BENCH_history.jsonl``.

``python3 benchmarks/repin.py [--check] [NAME ...]`` is the only writer of
these files and, besides the tests, the only reader of this table.  Pins are recorded
at ``REPRO_BENCH_SCALE=1`` on the quick server grid, on the CPython minor
version the CI jobs run (the call budgets count C calls).
"""

from __future__ import annotations

import importlib
import json
import pathlib
from dataclasses import dataclass, replace
from typing import Callable, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = pathlib.PurePath("benchmarks", "results")

HEADROOM = 1.005  # a call count may rise this much before it is "over budget"


# -- comparison rules: (key, pinned, live) -> what is wrong, or None ----------

def exact(key: str, pinned, live) -> Optional[str]:
    if live != pinned:
        return f"{_short(pinned)} -> {_short(live)}"
    return None


def ceiling(key: str, pinned, live) -> Optional[str]:
    """Call and tracked-object counts may fall (re-pin to bank the saving)
    but not rise more than 0.5 %; everything else in a budget file
    (events/op, messages/op) moves only when the simulated schedule moves,
    so it is exact."""
    if not key.endswith((".calls_per_op", ".calls_per_row", ".tracked_per_row")):
        return exact(key, pinned, live)
    if live > pinned * HEADROOM:
        return f"{live:.3f} > pinned {pinned:.3f} ({live / pinned - 1:+.2%})"
    return None


def floor(key: str, pinned, live) -> Optional[str]:
    """Detection scores: recall never below the pinned value, the run still
    green with no false-alert window; latency and precision are recorded,
    not gated."""
    leaf = key.rsplit(".", 1)[-1]
    if leaf == "recall":
        return None if live >= pinned else f"{live} dropped below pinned {pinned}"
    if leaf in ("ok", "false_alert_windows", "seed"):
        return exact(key, pinned, live)
    return None


@dataclass(frozen=True)
class Pin:
    name: str
    path: pathlib.PurePath  # relative to the repository root
    producer: str  # "module:function", no arguments
    rule: Callable = exact
    volatile: tuple = ()  # key prefixes never compared
    on_write: Optional[Callable] = None  # (doc, root) after the file is written

    def produce(self):
        """The live content: a JSON-able document, or text for a table."""
        module, _, function = self.producer.partition(":")
        doc = getattr(importlib.import_module(module), function)()
        if hasattr(doc, "render"):  # a metrics.Table
            return doc.render() + "\n"
        # What the file will read back as: tuples are lists, keys are strings.
        return json.loads(json.dumps(doc, default=repr))

    def read(self, root: pathlib.Path = ROOT):
        """The pinned content, or None when the artifact is not there yet."""
        path = root / self.path
        if not path.exists():
            return None
        text = path.read_text()
        return json.loads(text) if path.suffix == ".json" else text

    def write(self, doc, root: pathlib.Path = ROOT) -> None:
        """Keys keep the order the file already has (new ones sorted after
        them), so a re-pin's ``git diff`` shows values, never a reshuffle."""
        path = root / self.path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(doc if isinstance(doc, str)
                        else json.dumps(_ordered_like(doc, self.read(root)), indent=2) + "\n")
        if self.on_write is not None:
            self.on_write(doc, root)

    def compared(self, doc) -> dict:
        """``doc`` as ``{dotted key: leaf}`` without the volatile keys."""
        return {key: value for key, value in flatten(doc).items()
                if not key.startswith(self.volatile)}

    def problems(self, pinned, live) -> list:
        """Every way ``live`` breaks the pin, as printable lines."""
        if pinned is None:
            return ["no pinned file"]
        pinned, live = self.compared(pinned), self.compared(live)
        out = []
        for key, value in pinned.items():
            if key not in live:
                out.append(f"{key}: not reported any more")
            else:
                problem = self.rule(key, value, live[key])
                if problem:
                    out.append(f"{key}: {problem}")
        out += [f"{key}: not in the pinned file" for key in live if key not in pinned]
        return out

    def moved(self, pinned, live) -> list:
        """What a re-pin changes, one line per key, volatile keys aside."""
        pinned = {} if pinned is None else self.compared(pinned)
        live = self.compared(live)
        lines = []
        for key in [*pinned, *(key for key in live if key not in pinned)]:
            old, new = pinned.get(key, "(absent)"), live.get(key, "(absent)")
            if old != new:
                lines.append(f"{key}: {_short(old)} -> {_short(new)}{_delta(old, new)}")
        return lines


def flatten(doc, prefix: str = "") -> dict:
    """Nested dicts as dotted keys; a table's text as one key per line.
    Lists are leaves: a moved element moves the whole list."""
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            out.update(flatten(value, f"{prefix}{key}."))
        return out
    if isinstance(doc, str) and not prefix:
        return {f"line {n}": line for n, line in enumerate(doc.splitlines(), 1)}
    return {prefix[:-1]: doc}


def _ordered_like(doc, like):
    if not isinstance(doc, dict):
        return doc
    like = like if isinstance(like, dict) else {}
    keys = [key for key in like if key in doc] + sorted(key for key in doc if key not in like)
    return {key: _ordered_like(doc[key], like.get(key)) for key in keys}


def _short(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value)
    if len(text) == 64 and set(text) <= set("0123456789abcdef"):
        return text[:12] + "…"  # a hash: which one moved matters, not its tail
    return text if len(text) <= 72 else text[:69] + "..."


def _delta(old, new) -> str:
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if not numbers or not old:
        return ""
    return f"  ({new / old - 1:+.2%})"


# -- producers that have no test module of their own --------------------------

CHAOS_SEED = 99
# The three listing-cache runs that no cell of the matrix covers: a gray
# fault, fail-stop NN restarts, and a partition that drops changelog
# batches to a live NN (each drop flushes it).
CHAOS_LISTING_CACHE = (("gray-degraded-link", "hopsfs-cl-3-3"),
                       ("rolling-namenode-restarts", "hopsfs-cl-3-3"),
                       ("network-partition", "hopsfs-cl-3-3"))


def chaos_cell(scenario: str, setup: str, listing_cache: bool = False) -> dict:
    """One ``run_scenario`` as a matrix cell.  ``green`` means every
    invariant holds *and* the ones the scenario exists to exercise were
    really audited (a robust run without its ``exactly-once`` /
    ``deadline-compliance`` verdict is not green by omission)."""
    from repro.chaos import SCENARIOS, run_scenario
    from repro.errors import UnsupportedError
    from repro.experiments.setups import SETUPS, resolve_setup
    from repro.hopsfs import ListingCacheConfig

    spec = SETUPS[resolve_setup(setup)]
    wanted = SCENARIOS[scenario]
    if listing_cache:
        wanted = replace(wanted, listing_cache=ListingCacheConfig())
    try:
        result = run_scenario(wanted, setup=spec.name, seed=CHAOS_SEED)
    except UnsupportedError as exc:
        return {"verdict": f"unsupported:{exc}", "dispatch_hash": None,
                "completed": None, "failed": None}
    audited = {verdict.name for verdict in result.verdicts}
    required = set()
    if wanted.robust is not None:
        required = {"deadline-compliance"} | ({"exactly-once"} if spec.kind == "hopsfs" else set())
    red = [verdict.name for verdict in result.verdicts if not verdict.ok]
    red += [f"{name} (not audited)" for name in sorted(required - audited)]
    cell = {"verdict": "red" if red else "green", "dispatch_hash": result.dispatch_hash,
            "completed": result.completed, "failed": result.failed}
    if red:
        cell["red"] = red
    if result.elastic is not None:
        latency = result.elastic["reconfiguration_latency_ms"]
        rate = result.elastic["ops_per_nn_second"] or 0.0
        cell["elastic"] = {"reconfigurations": latency["count"],
                           "mean_latency_ms": round(latency["mean"] or 0.0, 3),
                           "ops_per_nn_second": round(rate, 3)}
        if not (latency["count"] and rate > 0):
            cell["verdict"] = "red"
            cell.setdefault("red", []).append("elastic (no measured reconfiguration)")
    return cell


def chaos_matrix() -> dict:
    """Every ``chaos.SCENARIOS`` entry on every setup of the paper, in
    process (~1 s a cell), plus the three listing-cache runs."""
    from repro.chaos import SCENARIOS
    from repro.experiments.setups import SETUPS, setup_slug

    slugs = [setup_slug(name) for name in SETUPS]
    return {
        "seed": CHAOS_SEED,
        "cells": {f"{scenario}/{slug}": chaos_cell(scenario, slug)
                  for scenario in SCENARIOS for slug in slugs},
        "listing_cache_cells": {f"{scenario}/{slug}": chaos_cell(scenario, slug, True)
                                for scenario, slug in CHAOS_LISTING_CACHE},
    }


MONITOR_SETUPS = ("cephfs", "hopsfs-cl-3-3")
MONITOR_SCENARIOS = ("baseline", "az-outage-under-load", "network-partition",
                     "gray-degraded-link", "slow-az", "overload-burst",
                     "nn-churn", "spot-preemption-storm")


def monitor_baseline() -> dict:
    """Detection scores of the SLO monitor: the fault-free control, three
    gray, two fail-stop and (HopsFS) the two elastic scenarios per setup."""
    from repro.chaos import SCENARIOS
    from repro.experiments.setups import SETUPS, resolve_setup
    from repro.obs.detect import run_monitor

    setups = {}
    for slug in MONITOR_SETUPS:
        spec = SETUPS[resolve_setup(slug)]
        cells = setups[slug] = {}
        for name in MONITOR_SCENARIOS:
            if name in SCENARIOS and SCENARIOS[name].unsupported_on(spec) is not None:
                continue
            result = run_monitor(name, setup=spec.name, seed=CHAOS_SEED)
            score = result.score
            latency = score.mean_detection_latency_ms
            cells[name] = {
                "ok": result.ok,
                "recall": round(score.recall, 4),
                "precision": round(score.precision, 4),
                "false_alert_windows": score.false_alert_windows,
                "mean_detection_latency_ms": None if latency is None else round(latency, 1),
            }
    return {"seed": CHAOS_SEED, "setups": setups}


def bench_history(report: dict, root: pathlib.Path) -> None:
    """Every write of ``BENCH_kernel.json`` leaves one line in the
    ``BENCH_history.jsonl`` beside it, so the trajectory survives the overwrite."""
    from repro.experiments.perf import HISTORY_FILE, append_history

    append_history(report, str(root / HISTORY_FILE))


# -- the table ------------------------------------------------------------------

# Wall-clock and memory fields of BENCH_kernel.json.
_BENCH_VOLATILE = (
    "microbench.wall_s", "microbench.events_per_sec", "peak_rss_mb",
    "scale_point.aggregate_", "scale_point.wall_events_per_sec", "scale_point.run_wall_s",
    "scale_point.peak_shard_rss_mb", "scale_point.workers",
)

# benchmarks/results/test_*.txt: the tables EXPERIMENTS.md quotes, each
# produced by the function its ``benchmarks/test_*`` module runs.
_FIGURE_TABLES = {
    "test_table1": "repro.experiments.figures:table1",
    "test_table2": "repro.experiments.figures:table2",
    "test_fig5": "repro.experiments.figures:fig5",
    "test_fig6": "repro.experiments.figures:fig6",
    "test_fig7": "repro.experiments.figures:fig7",
    "test_fig8": "repro.experiments.figures:fig8",
    "test_fig9": "benchmarks.test_fig9_percentiles:fig9_table",
    "test_fig10": "repro.experiments.figures:fig10",
    "test_fig11": "repro.experiments.figures:fig11",
    "test_fig12": "repro.experiments.figures:fig12",
    "test_fig13": "repro.experiments.figures:fig13",
    "test_fig14": "benchmarks.test_fig14_az_reads:fig14_table",
    "test_az_awareness_ablation": "benchmarks.test_ablations:ablation_table",
    "test_replication_factor_ablation": "benchmarks.test_ablations:replication_sweep",
}

PINS = {pin.name: pin for pin in (
    Pin("golden_kernel", pathlib.PurePath("tests/sim/golden/golden_kernel.json"),
        "tests.sim.test_determinism:golden_kernel"),
    Pin("golden_setups", pathlib.PurePath("tests/sim/golden/golden_setups.json"),
        "tests.sim.test_async_golden_setups:golden_setups"),
    Pin("call_budget", RESULTS / "call_budget.json",
        "benchmarks.test_call_budget:record", rule=ceiling),
    Pin("setup_budget", RESULTS / "setup_budget.json",
        "benchmarks.test_setup_budget:record", rule=ceiling),
    Pin("scale_smoke_golden", RESULTS / "scale_smoke_golden.json",
        "benchmarks.test_scale_speed:smoke_golden"),
    Pin("monitor_baseline", RESULTS / "monitor_baseline.json",
        "benchmarks.pins:monitor_baseline", rule=floor),
    Pin("BENCH_kernel", pathlib.PurePath("BENCH_kernel.json"),
        "repro.experiments.perf:run_perf", volatile=_BENCH_VOLATILE, on_write=bench_history),
    Pin("chaos_matrix", RESULTS / "chaos_matrix.json", "benchmarks.pins:chaos_matrix"),
    *(Pin(name, RESULTS / f"{name}.txt", producer) for name, producer in _FIGURE_TABLES.items()),
)}
