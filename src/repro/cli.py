"""Command-line interface: regenerate any table/figure or run one point.

Usage:
    python -m repro fig5                 # print Figure 5's series
    python -m repro table1 table2        # multiple at once
    python -m repro all                  # everything (slow)
    python -m repro point hopsfs-cl-3-3 --servers 24
    python -m repro point "HopsFS-CL (3,3)" --trace out.json   # Perfetto trace
    python -m repro report               # per-phase latency breakdown
    python -m repro chaos list           # fault-injection scenarios
    python -m repro chaos az-outage-under-load --setup hopsfs-cl-3-3
    python -m repro monitor              # SLO monitor vs every chaos scenario
    python -m repro monitor slow-az --setup cephfs --json detect.json
    python -m repro scale --population 1000000 --shards 12   # million-client run
    python -m repro scale --smoke        # canonical golden-gated smoke config
    python -m repro list                 # available targets and setups

Every setup argument takes the paper's name or its slug (``repro list``).

Scale knobs are the same as the benchmark suite's: REPRO_BENCH_FULL=1 for
the paper's full server grid, REPRO_BENCH_SCALE for window scaling.

``python -m repro perf`` measures what BENCH_kernel.json pins — the kernel
microbench, the events-per-op points and the recorded wins; the file itself
is re-pinned by ``benchmarks/repin.py`` (DESIGN.md, "Kernel performance").
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import ReproError, UnsupportedError
from .experiments import SETUPS, RunConfig, figures, resolve_setup, run_point, setup_slug
from .experiments.scale import SMOKE_CONFIG, ScaleConfig, run_scale
from .hopsfs.elastic import ElasticConfig
from .hopsfs.groupcommit import AsyncCommitConfig
from .hopsfs.listcache import HIT_COST_FRAC, TTL_MS, ListingCacheConfig

_TARGETS = [
    "table1",
    "table2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig_async",
]

# (flag, dataclass field, help).  The flag's type and default are the
# field's, so every default is written once: on its dataclass.
_SCALE_FLAGS = (
    ("--setup", "setup", "setup slug or paper name"),
    ("--servers", "servers", "metadata servers per shard DES"),
    ("--population", "population", "virtual clients"),
    ("--rate", "rate_ops_per_ms", "total offered load, ops per simulated ms"),
    ("--duration", "duration_ms", "measurement window, simulated ms"),
    ("--warmup", "warmup_ms", "warm-up before the window, simulated ms"),
    ("--seed", "seed", "run seed"),
    ("--shards", "shards", "request-stream partitions (0: 4 per AZ); "
                           "part of the determinism key"),
    ("--workers", "workers", "worker processes (0: min(shards, CPUs)); "
                             "never affects the merged artifact"),
    ("--zipf-s", "zipf_s", "population skew exponent"),
    ("--detail-every", "detail_every", "execute 1-in-K arrivals in full detail"),
    ("--scenario", "scenario", "run a chaos scenario inside every shard"),
)
_ASYNC_FLAGS = (
    ("--linger", "linger_ms", "async group-commit linger window in ms "
                              "(needs --async-commit)"),
    ("--batch-ops", "max_batch_ops", "async group-commit max ops per batch "
                                     "(needs --async-commit)"),
)
_ELASTIC_FLAGS = (
    ("--autoscale-min", "min_nns_per_az",
     "elastic scenarios: min NNs per AZ the autoscaler keeps"),
    ("--autoscale-max", "max_nns_per_az",
     "elastic scenarios: max NNs per AZ the autoscaler adds"),
    ("--autoscale-cooldown", "cooldown_ms",
     "elastic scenarios: ms between scale actions"),
    ("--membership-refresh", "membership_refresh_ms",
     "elastic scenarios: client membership refresh period, ms"),
)


def _add_flags(parser, config_cls, table, override: bool = False) -> None:
    """One flag per ``table`` row, typed and defaulted by ``config_cls``'s
    field.  ``override``: an unset flag reads None — it edits a config that
    already has a value (a scenario's) instead of building one."""
    fields = {f.name: f for f in dataclasses.fields(config_cls)}
    for flag, name, text in table:
        default = fields[name].default
        kind = str if default is None else type(default)
        if override:
            parser.add_argument(flag, dest=name, type=kind, default=None, help=text)
        else:
            parser.add_argument(flag, dest=name, type=kind, default=default,
                                help=f"{text} (default {default})")


def _flag_values(args, table) -> dict:
    """``{field: value}`` of the ``table`` flags that were given a value."""
    return {name: getattr(args, name) for _flag, name, _text in table
            if getattr(args, name) is not None}


def _path_configs(args) -> dict:
    """The opt-in serving paths ``--async-commit`` / ``--listing-cache`` ask for."""
    paths = {}
    if getattr(args, "async_commit", False):
        paths["async_commit"] = AsyncCommitConfig(**_flag_values(args, _ASYNC_FLAGS))
    if args.listing_cache:
        paths["listing_cache"] = ListingCacheConfig()
    return paths


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def _run_target(name: str) -> None:
    fn = getattr(figures, name)
    table = fn()
    print()
    print(table.render())


def _resolve_setups(args) -> bool:
    """Canonicalize ``args.setup`` / ``args.setups`` (paper name or slug) in
    place; on an unknown one print the error and return False."""
    try:
        if getattr(args, "setup", None) is not None:
            args.setup = resolve_setup(args.setup)
        if getattr(args, "setups", None):
            args.setups = [resolve_setup(name) for name in args.setups]
    except ReproError as exc:
        print(f"{exc}; see `python -m repro list`", file=sys.stderr)
        return False
    return True


def _print_setups() -> None:
    print("setups (slug, paper name):")
    for name in SETUPS:
        print(f"  {setup_slug(name):20s} {name}")


def _cmd_point(args) -> int:
    obs = None
    if args.trace or args.trace_jsonl:
        from .obs import ObsContext

        obs = ObsContext()
    paths = _path_configs(args)
    config = RunConfig(warmup_ms=args.warmup, window_ms=args.window, **paths)
    point = run_point(args.setup, args.servers, config=config, obs=obs)
    print(f"setup:          {point.setup}")
    print(f"servers:        {point.servers}")
    if "async_commit" in paths:
        commit = paths["async_commit"]
        print(f"commit path:    async group commit (linger {commit.linger_ms}ms, "
              f"max {commit.max_batch_ops} ops/batch)")
    if "listing_cache" in paths:
        print(f"read path:      pre-materialized listing cache "
              f"(ttl {TTL_MS}ms, hit cost {HIT_COST_FRAC:.2f}x)")
    print(f"throughput:     {point.throughput_ops_s:,.0f} ops/s")
    print(f"avg latency:    {point.avg_latency_ms:.2f} ms")
    print(f"p50/p90/p99:    {point.p50_ms:.2f} / {point.p90_ms:.2f} / {point.p99_ms:.2f} ms")
    print(f"completed:      {point.completed} ops ({point.failed} failed)")
    for error, count in point.failed_by_error.items():
        print(f"  failed with   {error}: {count}")
    r = point.resource
    print(f"storage CPU:    {r.storage_cpu_pct:.1f} %")
    print(f"server CPU:     {r.server_cpu_pct:.1f} %")
    print(f"cross-AZ bytes: {r.cross_az_mb:.2f} MB  (intra-AZ {r.intra_az_mb:.2f} MB)")
    if obs is not None:
        from .obs import breakdown_table, chrome_trace, validate_chrome_trace
        from .obs import write_chrome_trace, write_spans_jsonl

        if args.trace:
            metadata = {"setup": point.setup, "servers": point.servers}
            problems = validate_chrome_trace(chrome_trace(obs.tracer, metadata))
            if problems:
                print("trace validation FAILED:", file=sys.stderr)
                for p in problems[:10]:
                    print(f"  - {p}", file=sys.stderr)
                return 1
            write_chrome_trace(obs.tracer, args.trace, metadata=metadata)
            print(f"trace:          {args.trace} "
                  f"({len(obs.tracer.spans)} spans; load in ui.perfetto.dev)")
        if args.trace_jsonl:
            write_spans_jsonl(obs.tracer, args.trace_jsonl)
            print(f"spans jsonl:    {args.trace_jsonl}")
        breakdown_table(obs.tracer, title=f"Latency breakdown - {point.setup}").print()
    return 0


# Setups for `python -m repro report` (one per paper family; Table 1 style).
_REPORT_SETUPS = [
    "HopsFS (3,3)",
    "HopsFS-CL (2,3)",
    "HopsFS-CL (3,3)",
    "CephFS",
]


def _cmd_report(args) -> int:
    from .obs import ObsContext, breakdown_table, phase_breakdown_json

    doc = {}
    for setup in args.setups or _REPORT_SETUPS:
        obs = ObsContext()
        config = RunConfig(warmup_ms=args.warmup, window_ms=args.window)
        point = run_point(setup, args.servers, config=config, obs=obs)
        table = breakdown_table(
            obs.tracer,
            title=(f"Latency breakdown - {setup} @ {point.servers} servers "
                   f"({point.throughput_ops_s:,.0f} ops/s)"),
        )
        table.print()
        if args.json:
            entry = phase_breakdown_json(obs.tracer)
            entry["servers"] = point.servers
            entry["throughput_ops_s"] = point.throughput_ops_s
            doc[setup] = entry
    if args.json:
        _write_json(args.json, doc)
    return 0


def _cmd_perf(args) -> int:
    from .experiments.perf import format_microbench, run_perf

    report = run_perf()
    print(format_microbench(report["microbench"]))
    for key in ("fig5_point", "cephfs_point"):
        p = report[key]
        print(f"{key + ':':<15}{p['events']:,} events, {p['events_per_op']:.3f} events/op "
              f"({p['setup']} @ {p['servers']} servers, "
              f"{p['throughput_ops_s']:,.0f} simulated ops/s)")
    point = report["scale_point"]
    print(f"scale point:   {point['aggregate_events_per_sec']:,} events/s projected "
          f"({point['population']:,} clients over {point['shards']} shards, "
          f"{point['offered_ops_per_s']:,.0f} offered ops/s, "
          f"{point['aggregate_speedup_vs_microbench']:.2f}x microbench)")
    for name, base, test in (("async", "sync", "async"), ("listing", "off", "on")):
        p = report[f"{name}_point"]
        print(f"{name + ' point:':<15}{p[test]['throughput_ops_s']:,.0f} ops/s {test} vs "
              f"{p[base]['throughput_ops_s']:,.0f} {base} on {p['setup']} "
              f"({p[f'{name}_speedup']:.2f}x throughput, "
              f"{p[f'{name}_latency_ratio']:.2f}x latency; failed ops {test} "
              f"{p[test]['failed_by_error']}, {base} {p[base]['failed_by_error']})")
    print(f"peak RSS:      {report['peak_rss_mb']:.1f} MB "
          f"(peak shard RSS {point['peak_shard_rss_mb']:.1f} MB)")
    if args.out:
        _write_json(args.out, report)
    return 0


def _cmd_scale(args) -> int:
    if args.smoke:
        config = dataclasses.replace(SMOKE_CONFIG, setup=args.setup, workers=args.workers)
    else:
        config = ScaleConfig(**_flag_values(args, _SCALE_FLAGS))
    try:
        artifact = run_scale(config)
    except ReproError as exc:
        print(f"python -m repro scale: {exc}", file=sys.stderr)
        return 2
    merged = artifact["merged"]
    timing = artifact["timing"]
    cfg = artifact["config"]
    print(f"setup:            {cfg['setup']} @ {cfg['servers']} servers")
    print(f"population:       {cfg['population']:,} virtual clients "
          f"(zipf s={cfg['zipf_s']}, max sampled id {merged['max_client_id']:,})")
    print(f"shards:           {cfg['shards']} ({timing['workers']} worker "
          f"process{'es' if timing['workers'] != 1 else ''})")
    print(f"offered load:     {merged['offered_ops_per_s']:,.0f} ops/s "
          f"({merged['arrivals']:,} arrivals in {cfg['duration_ms']:.0f} ms)")
    print(f"detailed ops:     {merged['detailed']:,} sampled 1-in-{cfg['detail_every']} "
          f"({merged['shed']} shed)")
    col = merged["collector"]
    print(f"detail latency:   avg {col['avg_latency_ms']:.2f} ms, "
          f"p50/p90/p99 {col['p50_ms']:.2f}/{col['p90_ms']:.2f}/{col['p99_ms']:.2f} ms "
          f"({col['failed']} failed)")
    print(f"events:           {merged['events']:,} "
          f"({timing['wall_events_per_sec']:,} events/s wall, measured; "
          f"{timing['aggregate_events_per_sec']:,} events/s projected from "
          f"per-shard CPU rates)")
    print(f"wall time:        {timing['run_wall_s']:.2f} s, "
          f"{timing['build_share']:.0%} of shard time spent building")
    print(f"peak shard RSS:   {timing['peak_shard_rss_mb']:.1f} MB")
    print(f"merged dispatch:  {merged['dispatch_hash'][:16]}…")
    print(f"artifact hash:    {artifact['artifact_hash'][:16]}…")
    if "all_green" in merged:
        print(f"scenario:         {cfg['scenario']} "
              f"({'all invariants green' if merged['all_green'] else 'INVARIANT RED'})")
    if "availability_timeline" in merged:
        rows = merged["availability_timeline"]
        degraded = [r for r in rows
                    if r["availability"] is not None and r["availability"] < 1.0]
        silent = sum(1 for r in rows if r["availability"] is None)
        print(f"availability:     {len(rows)} buckets merged across shards, "
              f"{len(degraded)} degraded, {silent} silent")
        for r in degraded[:8]:
            print(f"    t={r['t_ms']:6.0f}ms ok={r['ok']:5d} failed={r['failed']:4d} "
                  f"avail={r['availability']:.3f}")
    if args.json:
        _write_json(args.json, artifact)
    return 0 if merged.get("all_green", True) else 1


def _cmd_chaos(args) -> int:
    # Imported lazily: the chaos layer pulls in both full stacks.
    from .chaos import SCENARIOS, run_scenario

    # Positional and --scenario flag forms are both accepted.
    if args.scenario is None:
        args.scenario = args.scenario_flag
    if args.scenario is None:
        print("no scenario given; see `python -m repro chaos list`", file=sys.stderr)
        return 2
    if args.scenario == "list":
        print("scenarios [what each needs of the setup]:")
        for scenario in SCENARIOS.values():
            print(f"  {scenario.name:28s} {scenario.description} "
                  f"[min_azs={scenario.min_azs}, stack={scenario.stack or 'any'}]")
        print("  elastic-compare              fixed-pool vs autoscaled "
              "cost-normalized throughput [min_azs=1, stack=hopsfs]")
        _print_setups()
        return 0
    if args.scenario == "elastic-compare":
        return _chaos_elastic_compare(args)
    if args.scenario not in SCENARIOS:
        print(
            f"unknown scenario {args.scenario!r}; see `python -m repro chaos list`",
            file=sys.stderr,
        )
        return 2
    scenario = SCENARIOS[args.scenario]
    changes = _path_configs(args)
    elastic = _flag_values(args, _ELASTIC_FLAGS)
    try:
        if elastic and scenario.elastic is None:
            raise ReproError(
                f"{scenario.name} is not an elastic scenario; autoscaler flags "
                f"only apply to scenarios with runtime NN membership"
            )
        if elastic:
            changes["elastic"] = dataclasses.replace(scenario.elastic, **elastic)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    scenario = dataclasses.replace(scenario, **changes)
    obs = None
    if args.trace:
        from .obs import ObsContext

        obs = ObsContext()
    try:
        result = run_scenario(scenario, setup=args.setup, seed=args.seed, obs=obs,
                              **_servers(args))
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    if args.json:
        _write_json(args.json, result.to_json())
    if obs is not None:
        faults = [s for s in obs.tracer.spans if s.name == "chaos.fault"]
        print(f"traced: {len(obs.tracer.spans)} spans ({len(faults)} chaos.fault)")
    return 0 if result.all_green else 1


def _chaos_elastic_compare(args) -> int:
    """Fixed-pool vs autoscaled comparison artifact (``chaos elastic-compare``)."""
    from .chaos import run_elastic_comparison

    try:
        out = run_elastic_comparison(setup=args.setup, seed=args.seed, **_servers(args))
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"elastic comparison on {out['setup']} "
          f"({out['num_servers']} NNs, seed {args.seed}):")
    for key, leg in out["legs"].items():
        el = leg["elastic"]
        print(f"  {key:<11} completed={leg['completed']:<6} "
              f"nn_seconds={el['nn_seconds_provisioned']:.3f}  "
              f"ops/NN-s={el['ops_per_nn_second']:.1f}  "
              f"pool {el['pool_size_peak']}->{el['pool_size_final']}  "
              f"green={leg['all_green']}")
    gain = out.get("cost_efficiency_gain")
    if gain is not None:
        print(f"  cost-normalized throughput gain: {gain:.2f}x")
    if args.json:
        _write_json(args.json, out)
    return 0 if all(leg["all_green"] for leg in out["legs"].values()) else 1


def _cmd_monitor(args) -> int:
    # Imported lazily: the detector harness pulls in both full stacks.
    from .obs.detect import SCENARIOS, run_monitor, monitor_table

    if args.scenario == "list":
        print("scenarios (plus 'baseline' and 'all'):")
        for scenario in SCENARIOS.values():
            print(f"  {scenario.name:28s} {scenario.description}")
        return 0
    if args.scenario == "all":
        spec = SETUPS[args.setup]
        names = ["baseline"] + sorted(
            name for name, s in SCENARIOS.items() if s.unsupported_on(spec) is None)
    elif args.scenario == "baseline" or args.scenario in SCENARIOS:
        names = [args.scenario]
    else:
        print(f"unknown scenario {args.scenario!r}; "
              "see `python -m repro monitor list`", file=sys.stderr)
        return 2

    try:
        results = [
            run_monitor(name, setup=args.setup, seed=args.seed, grace_ms=args.grace,
                        **_servers(args))
            for name in names
        ]
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(results[0].render())
    else:
        print()
        monitor_table(results, title=f"Detection scores - {args.setup}").print()
    if args.json:
        _write_json(args.json, {"setup": args.setup, "seed": args.seed,
                                "runs": [r.to_json() for r in results]})
    return 0 if all(r.ok for r in results) else 1


def _add_target_flags(parser) -> None:
    """The deployment a ``chaos`` / ``monitor`` run is built on."""
    parser.add_argument("--setup", default="hopsfs-cl-3-3",
                        help="setup slug or paper name (default hopsfs-cl-3-3)")
    parser.add_argument("--servers", type=int, default=None,
                        help="metadata servers (default: the run's own, 3; "
                             "6 for chaos elastic-compare)")
    parser.add_argument("--seed", type=int, default=99)


def _servers(args) -> dict:
    """``num_servers`` if ``--servers`` was given; else the run's own default."""
    return {} if args.servers is None else {"num_servers": args.servers}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command")

    point = sub.add_parser("point", help="run one (setup, servers) measurement")
    point.add_argument("setup", help="setup slug or paper name")
    point.add_argument("--servers", type=int, default=6)
    point.add_argument("--warmup", type=float, default=15.0)
    point.add_argument("--window", type=float, default=15.0)
    point.add_argument("--trace", default=None, metavar="PATH",
                       help="trace the run and write a Chrome trace_event "
                            "JSON file (load in ui.perfetto.dev)")
    point.add_argument("--trace-jsonl", default=None, metavar="PATH",
                       help="also write raw spans as JSON Lines")
    point.add_argument("--async-commit", action="store_true",
                       help="opt HopsFS setups into the async group-commit "
                            "metadata path (early acks + fsync durability "
                            "horizon); no-op on CephFS")
    _add_flags(point, AsyncCommitConfig, _ASYNC_FLAGS)
    point.add_argument("--listing-cache", action="store_true",
                       help="opt HopsFS setups into the pre-materialized "
                            "listing/attr cache (changelog-invalidated reads "
                            "served from NN memory); no-op on CephFS")
    point.set_defaults(func=_cmd_point)

    report = sub.add_parser(
        "report", help="per-phase latency breakdown across setups (Table 1 style)"
    )
    report.add_argument("--setups", nargs="*", default=None,
                        help="setup slugs or paper names "
                             f"(default: {', '.join(_REPORT_SETUPS)})")
    report.add_argument("--servers", type=int, default=3)
    report.add_argument("--warmup", type=float, default=10.0)
    report.add_argument("--window", type=float, default=10.0)
    report.add_argument("--json", default=None, metavar="PATH",
                        help="write the per-setup phase breakdown as JSON")
    report.set_defaults(func=_cmd_report)

    perf = sub.add_parser("perf", help="measure the kernel microbench, the pinned "
                                       "events/op points and the recorded wins")
    perf.add_argument("--out", default=None, help="also write the report as JSON")
    perf.set_defaults(func=_cmd_perf)

    scale = sub.add_parser(
        "scale", help="sharded aggregated-arrival run over a huge client population"
    )
    _add_flags(scale, ScaleConfig, _SCALE_FLAGS)
    scale.add_argument("--smoke", action="store_true",
                       help="run the canonical CI smoke config "
                            "(100k clients, 2 shards, golden-gated hash)")
    scale.add_argument("--json", default=None, metavar="PATH",
                       help="write the merged artifact as JSON")
    scale.set_defaults(func=_cmd_scale)

    chaos = sub.add_parser(
        "chaos", help="run a named fault-injection scenario ('list' to enumerate)"
    )
    chaos.add_argument("scenario", nargs="?", default=None,
                       help="scenario name, or 'list'")
    chaos.add_argument("--scenario", dest="scenario_flag", default=None,
                       metavar="NAME", help="scenario name (flag form)")
    _add_target_flags(chaos)
    chaos.add_argument("--json", default=None, metavar="PATH",
                       help="write the full run result (timeline, trace, "
                            "verdicts) as JSON")
    _add_flags(chaos, ElasticConfig, _ELASTIC_FLAGS, override=True)
    chaos.add_argument("--listing-cache", action="store_true",
                       help="run the scenario with the pre-materialized "
                            "listing cache on (the listing-consistency "
                            "invariant then audits every live entry)")
    chaos.add_argument("--trace", action="store_true",
                       help="attach the tracer (dispatch hash must not change)")
    chaos.set_defaults(func=_cmd_chaos)

    monitor = sub.add_parser(
        "monitor", help="run the SLO monitor against a chaos scenario and "
                        "score its alerts vs injected ground truth"
    )
    monitor.add_argument("scenario", nargs="?", default="all",
                         help="scenario name, 'baseline', 'all' (default), "
                              "or 'list'")
    _add_target_flags(monitor)
    monitor.add_argument("--grace", type=float, default=60.0,
                         help="post-heal grace for alert matching, ms (default 60)")
    monitor.add_argument("--json", default=None, metavar="PATH",
                         help="write detection scores, alerts, timeline and "
                              "phase breakdown as JSON")
    monitor.set_defaults(func=_cmd_monitor)

    sub.add_parser("list", help="list targets and setups")
    for target in _TARGETS + ["all"]:
        sub.add_parser(target, help=f"regenerate {target}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    command = args.command
    if command is None:
        parser.print_help()
        return 1
    if command == "list":
        print("targets:", ", ".join(_TARGETS), "(or 'all')")
        _print_setups()
        return 0
    if not _resolve_setups(args):
        return 2
    if hasattr(args, "func"):
        return args.func(args)
    targets = _TARGETS if command == "all" else [command] + [
        t for t in extra if t in _TARGETS
    ]
    for target in targets:
        _run_target(target)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
