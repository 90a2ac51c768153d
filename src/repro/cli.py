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

``python -m repro perf`` runs the kernel performance harness (events/sec
microbenchmark plus one timed Figure 5 point) and writes BENCH_kernel.json;
see DESIGN.md's "Kernel performance" section.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ReproError, UnsupportedError
from .experiments import SETUPS, RunConfig, figures, resolve_setup, run_point, setup_slug

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
    async_commit = None
    if args.async_commit:
        from .hopsfs.groupcommit import AsyncCommitConfig

        kwargs = {}
        if args.linger is not None:
            kwargs["linger_ms"] = args.linger
        if args.batch_ops is not None:
            kwargs["max_batch_ops"] = args.batch_ops
        async_commit = AsyncCommitConfig(**kwargs)
    listing_cache = None
    if args.listing_cache:
        from .hopsfs.listcache import ListingCacheConfig

        listing_cache = ListingCacheConfig()
    config = RunConfig(warmup_ms=args.warmup, window_ms=args.window,
                       async_commit=async_commit,
                       listing_cache=listing_cache)
    point = run_point(args.setup, args.servers, config=config, obs=obs)
    print(f"setup:          {point.setup}")
    print(f"servers:        {point.servers}")
    if async_commit is not None:
        print(f"commit path:    async group commit "
              f"(linger {async_commit.linger_ms}ms, "
              f"max {async_commit.max_batch_ops} ops/batch)")
    if listing_cache is not None:
        print(f"read path:      pre-materialized listing cache "
              f"(ttl {listing_cache.ttl_ms}ms, "
              f"hit cost {listing_cache.hit_cost_frac:.2f}x)")
    print(f"throughput:     {point.throughput_ops_s:,.0f} ops/s")
    print(f"avg latency:    {point.avg_latency_ms:.2f} ms")
    print(f"p50/p90/p99:    {point.p50_ms:.2f} / {point.p90_ms:.2f} / {point.p99_ms:.2f} ms")
    print(f"completed:      {point.completed} ops ({point.failed} failed)")
    r = point.resource
    print(f"storage CPU:    {r.storage_cpu_pct:.1f} %")
    print(f"server CPU:     {r.server_cpu_pct:.1f} %")
    print(f"cross-AZ bytes: {r.cross_az_mb:.2f} MB  (intra-AZ {r.intra_az_mb:.2f} MB)")
    if obs is not None:
        from .obs import breakdown_table, chrome_trace, validate_chrome_trace
        from .obs import write_chrome_trace, write_spans_jsonl

        if args.trace:
            doc = chrome_trace(obs.tracer, metadata={"setup": point.setup,
                                                     "servers": point.servers})
            problems = validate_chrome_trace(doc)
            if problems:
                print("trace validation FAILED:", file=sys.stderr)
                for p in problems[:10]:
                    print(f"  - {p}", file=sys.stderr)
                return 1
            write_chrome_trace(obs.tracer, args.trace,
                               metadata={"setup": point.setup,
                                         "servers": point.servers})
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
        import json

        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


def _cmd_perf(args) -> int:
    # Imported lazily: the perf harness pulls in the whole experiment stack.
    from .experiments.perf import format_microbench, run_perf

    baseline = None
    if args.baseline:
        import json

        try:
            with open(args.baseline) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"python -m repro perf: cannot read --baseline {args.baseline}: {exc}")
            return 2
        baseline = data.get("pre_pr_baseline", data)
    report = run_perf(out_path=args.out, baseline=baseline)
    micro = report["microbench"]
    fig5 = report["fig5_point"]
    point = report["scale_point"]
    print(format_microbench(micro))
    print(f"fig5 point:  {fig5['events_per_sec']:,} events/s "
          f"({fig5['setup']} @ {fig5['servers']} servers, "
          f"{fig5['throughput_ops_s']:,.0f} simulated ops/s, "
          f"{fig5['events_per_op']:.3f} events/op)")
    cephfs = report["cephfs_point"]
    print(f"cephfs pt:   {cephfs['events_per_sec']:,} events/s "
          f"({cephfs['setup']} @ {cephfs['servers']} servers, "
          f"{cephfs['throughput_ops_s']:,.0f} simulated ops/s, "
          f"{cephfs['events_per_op']:.3f} events/op, "
          f"generator {cephfs['gen_us_per_op']:.2f} us/op)")
    print(f"scale point: {point['aggregate_events_per_sec']:,} events/s projected "
          f"({point['population']:,} clients over {point['shards']} shards, "
          f"{point['offered_ops_per_s']:,.0f} offered ops/s, "
          f"{point['aggregate_speedup_vs_microbench']:.2f}x microbench)")
    commit = report["async_point"]
    print(f"async point: {commit['async']['throughput_ops_s']:,.0f} ops/s async vs "
          f"{commit['sync']['throughput_ops_s']:,.0f} sync "
          f"({commit['op']} on {commit['setup']}, "
          f"{commit['async_speedup']:.2f}x throughput, "
          f"{commit['async_latency_ratio']:.2f}x latency)")
    listing = report["listing_point"]
    print(f"listing pt:  {listing['on']['throughput_ops_s']:,.0f} ops/s cached vs "
          f"{listing['off']['throughput_ops_s']:,.0f} transactional "
          f"({listing['workload']} on {listing['setup']}, "
          f"{listing['listing_speedup']:.2f}x throughput, "
          f"{listing['listing_latency_ratio']:.2f}x latency)")
    print(f"peak RSS:    {report['peak_rss_mb']:.1f} MB "
          f"(peak shard RSS {point['peak_shard_rss_mb']:.1f} MB)")
    for key in ("microbench_speedup_vs_pre_pr", "fig5_speedup_vs_pre_pr"):
        if key in report:
            print(f"{key}: {report[key]:.2f}x")
    if args.out:
        print(f"wrote {args.out} (and one line to the BENCH_history.jsonl beside it)")
    return 0


def _cmd_scale(args) -> int:
    # Imported lazily: the scale runner pulls in the experiment stack.
    from .experiments.scale import SMOKE_CONFIG, ScaleConfig, run_scale

    if args.smoke:
        from dataclasses import replace

        config = replace(SMOKE_CONFIG, setup=args.setup, workers=args.workers or 0)
    else:
        config = ScaleConfig(
            setup=args.setup,
            servers=args.servers,
            population=args.population,
            rate_ops_per_ms=args.rate,
            duration_ms=args.duration,
            warmup_ms=args.warmup,
            seed=args.seed,
            shards=args.shards or 0,
            workers=args.workers or 0,
            zipf_s=args.zipf_s,
            detail_every=args.detail_every,
            scenario=args.scenario,
        )
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
        import json

        with open(args.json, "w") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    if "all_green" in merged and not merged["all_green"]:
        return 1
    return 0


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
        print("scenarios:")
        for scenario in SCENARIOS.values():
            print(f"  {scenario.name:28s} {scenario.description}")
        print("  elastic-compare              fixed-pool vs autoscaled "
              "cost-normalized throughput (HopsFS setups)")
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
    try:
        scenario = _apply_elastic_overrides(scenario, args)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if getattr(args, "listing_cache", False):
        import dataclasses

        from .hopsfs.listcache import ListingCacheConfig

        scenario = dataclasses.replace(
            scenario, listing_cache=ListingCacheConfig()
        )
    obs = None
    if args.trace:
        from .obs import ObsContext

        obs = ObsContext()
    try:
        result = run_scenario(
            scenario, setup=args.setup, num_servers=args.servers, seed=args.seed, obs=obs
        )
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(result.to_json(), fh, indent=2)
        print(f"\nwrote {args.json}")
    if obs is not None:
        faults = [s for s in obs.tracer.spans if s.name == "chaos.fault"]
        print(f"traced: {len(obs.tracer.spans)} spans ({len(faults)} chaos.fault)")
    return 0 if result.all_green else 1


def _apply_elastic_overrides(scenario, args):
    """Rebuild a scenario with the CLI's autoscaler overrides applied."""
    import dataclasses

    overrides = {}
    if getattr(args, "autoscale_min", None) is not None:
        overrides["min_nns_per_az"] = args.autoscale_min
    if getattr(args, "autoscale_max", None) is not None:
        overrides["max_nns_per_az"] = args.autoscale_max
    if getattr(args, "autoscale_cooldown", None) is not None:
        overrides["cooldown_ms"] = args.autoscale_cooldown
    if getattr(args, "membership_refresh", None) is not None:
        overrides["membership_refresh_ms"] = args.membership_refresh
    if not overrides:
        return scenario
    if scenario.elastic is None:
        raise ReproError(
            f"{scenario.name} is not an elastic scenario; autoscaler flags "
            f"only apply to scenarios with runtime NN membership"
        )
    return dataclasses.replace(
        scenario, elastic=dataclasses.replace(scenario.elastic, **overrides)
    )


def _chaos_elastic_compare(args) -> int:
    """Fixed-pool vs autoscaled comparison artifact (``chaos elastic-compare``)."""
    from .chaos import run_elastic_comparison

    # 6 NNs (2/AZ on 3-AZ setups) leaves the autoscaler real headroom to
    # shed; the stock --servers default of 3 is already at the floor.
    servers = args.servers if args.servers != 3 else 6
    try:
        out = run_elastic_comparison(
            setup=args.setup, num_servers=servers, seed=args.seed
        )
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"elastic comparison on {out['setup']} "
          f"({servers} NNs, seed {args.seed}):")
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
        import json

        with open(args.json, "w") as fh:
            json.dump(out, fh, indent=2)
        print(f"\nwrote {args.json}")
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
        # Every scenario the setup supports: elastic NN membership is HopsFS-only.
        hopsfs = SETUPS[args.setup].kind == "hopsfs"
        names = ["baseline"] + sorted(
            name for name, s in SCENARIOS.items() if hopsfs or s.elastic is None)
    elif args.scenario == "baseline" or args.scenario in SCENARIOS:
        names = [args.scenario]
    else:
        print(f"unknown scenario {args.scenario!r}; "
              "see `python -m repro monitor list`", file=sys.stderr)
        return 2

    results = []
    for name in names:
        results.append(run_monitor(
            name, setup=args.setup, num_servers=args.servers, seed=args.seed,
            interval_ms=args.interval, grace_ms=args.grace,
        ))
    if len(results) == 1:
        print(results[0].render())
    else:
        print()
        monitor_table(results, title=f"Detection scores - {args.setup}").print()
    if args.json:
        import json

        doc = {"setup": args.setup, "seed": args.seed,
               "runs": [r.to_json() for r in results]}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    if args.html:
        with open(args.html, "w") as fh:
            for r in results:
                fh.write(r.render_html())
        print(f"wrote {args.html}")
    return 0 if all(r.ok for r in results) else 1


def main(argv=None) -> int:
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
    point.add_argument("--linger", type=float, default=None, metavar="MS",
                       help="async group-commit linger window in ms "
                            "(default 1.0; needs --async-commit)")
    point.add_argument("--batch-ops", type=int, default=None, metavar="N",
                       help="async group-commit max ops per batch "
                            "(default 16; needs --async-commit)")
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

    perf = sub.add_parser("perf", help="run the kernel perf harness")
    perf.add_argument("--out", default="BENCH_kernel.json",
                      help="output JSON path (default BENCH_kernel.json)")
    perf.add_argument("--baseline", default=None,
                      help="existing BENCH_kernel.json whose pre_pr_baseline to carry over")
    perf.set_defaults(func=_cmd_perf)

    scale = sub.add_parser(
        "scale", help="sharded aggregated-arrival run over a huge client population"
    )
    scale.add_argument("--setup", default="hopsfs-cl-3-3",
                       help="setup slug or pretty name (default hopsfs-cl-3-3)")
    scale.add_argument("--servers", type=int, default=3,
                       help="metadata servers per shard DES (default 3)")
    scale.add_argument("--population", type=int, default=1_000_000,
                       help="virtual clients (default 1,000,000)")
    scale.add_argument("--rate", type=float, default=2000.0,
                       help="total offered load, ops per simulated ms (default 2000)")
    scale.add_argument("--duration", type=float, default=200.0,
                       help="measurement window, simulated ms (default 200)")
    scale.add_argument("--warmup", type=float, default=20.0)
    scale.add_argument("--seed", type=int, default=0)
    scale.add_argument("--shards", type=int, default=None,
                       help="request-stream partitions (default: 4 per AZ); "
                            "part of the determinism key")
    scale.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: min(shards, CPUs)); "
                            "never affects the merged artifact")
    scale.add_argument("--zipf-s", type=float, default=1.05,
                       help="population skew exponent (default 1.05)")
    scale.add_argument("--detail-every", type=int, default=64,
                       help="execute 1-in-K arrivals in full detail (default 64)")
    scale.add_argument("--scenario", default=None, metavar="NAME",
                       help="run a chaos scenario inside every shard")
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
    chaos.add_argument("--setup", default="hopsfs-cl-3-3",
                       help="setup slug or pretty name (default hopsfs-cl-3-3)")
    chaos.add_argument("--servers", type=int, default=3,
                       help="metadata servers (default 3)")
    chaos.add_argument("--seed", type=int, default=99)
    chaos.add_argument("--json", default=None, metavar="PATH",
                       help="write the full run result (timeline, trace, "
                            "verdicts) as JSON")
    chaos.add_argument("--autoscale-min", type=int, default=None, metavar="N",
                       help="elastic scenarios: min NNs per AZ the autoscaler keeps")
    chaos.add_argument("--autoscale-max", type=int, default=None, metavar="N",
                       help="elastic scenarios: max NNs per AZ the autoscaler adds")
    chaos.add_argument("--autoscale-cooldown", type=float, default=None,
                       metavar="MS", help="elastic scenarios: ms between scale actions")
    chaos.add_argument("--membership-refresh", type=float, default=None,
                       metavar="MS",
                       help="elastic scenarios: client membership refresh period")
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
    monitor.add_argument("--setup", default="hopsfs-cl-3-3",
                         help="setup slug or pretty name (default hopsfs-cl-3-3)")
    monitor.add_argument("--servers", type=int, default=3,
                         help="metadata servers (default 3)")
    monitor.add_argument("--seed", type=int, default=99)
    monitor.add_argument("--interval", type=float, default=10.0,
                         help="time-series window width, ms (default 10)")
    monitor.add_argument("--grace", type=float, default=60.0,
                         help="post-heal grace for alert matching, ms (default 60)")
    monitor.add_argument("--json", default=None, metavar="PATH",
                         help="write detection scores, alerts, timeline and "
                              "phase breakdown as JSON")
    monitor.add_argument("--html", default=None, metavar="PATH",
                         help="write a self-contained HTML report")
    monitor.set_defaults(func=_cmd_monitor)

    sub.add_parser("list", help="list targets and setups")
    for target in _TARGETS + ["all"]:
        sub.add_parser(target, help=f"regenerate {target}")

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
    if command in ("point", "perf", "report", "chaos", "scale", "monitor"):
        return args.func(args)
    targets = _TARGETS if command == "all" else [command] + [
        t for t in extra if t in _TARGETS
    ]
    for target in targets:
        _run_target(target)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
