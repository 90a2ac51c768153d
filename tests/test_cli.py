"""CLI smoke tests."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "HopsFS-CL (3,3)" in out
    assert "hopsfs-cl-3-3" in out
    assert "fig14" in out


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_table_targets(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "0.399" in out  # the b<->c latency from Table I
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "LDM" in out


def test_point_unknown_setup(capsys):
    assert main(["point", "NopeFS"]) == 2


def test_point_takes_a_slug(capsys):
    code = main(
        ["point", "hopsfs-cl-3-3", "--servers", "1", "--warmup", "2", "--window", "2"]
    )
    assert code == 0
    assert "HopsFS-CL (3,3)" in capsys.readouterr().out


def test_unknown_setup_is_one_message_from_every_subcommand(capsys):
    messages = set()
    for argv in (
        ["point", "NopeFS"],
        ["report", "--setups", "cephfs", "NopeFS"],
        ["scale", "--setup", "NopeFS"],
        ["chaos", "az-outage-under-load", "--setup", "NopeFS"],
        ["chaos", "elastic-compare", "--setup", "NopeFS"],
        ["monitor", "baseline", "--setup", "NopeFS"],
    ):
        assert main(argv) == 2, argv
        messages.add(capsys.readouterr().err)
    (message,) = messages
    assert "unknown setup 'NopeFS'" in message and "hopsfs-cl-3-3" in message


@pytest.mark.parametrize("argv, servers", [
    ([], 6),  # unset: the comparison's own default, what CI runs
    (["--servers", "3"], 3),  # an explicit 3 is not the unset default
    (["--servers", "4"], 4),
])
def test_elastic_compare_passes_the_servers_asked_for(monkeypatch, capsys, argv, servers):
    import inspect

    import repro.chaos

    default = inspect.signature(
        repro.chaos.run_elastic_comparison).parameters["num_servers"].default
    seen = []

    def fake(setup, seed, num_servers=default):
        seen.append(num_servers)
        return {"setup": setup, "num_servers": num_servers, "legs": {}}

    monkeypatch.setattr(repro.chaos, "run_elastic_comparison", fake)
    assert main(["chaos", "elastic-compare", *argv]) == 0
    assert seen == [servers]
    assert f"({servers} NNs, seed 99)" in capsys.readouterr().out


def test_point_runs(capsys):
    code = main(
        ["point", "HopsFS (2,1)", "--servers", "1", "--warmup", "3", "--window", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "ops/s" in out


def test_point_trace_writes_valid_chrome_trace(tmp_path, capsys):
    import json

    from repro.obs import validate_chrome_trace

    trace = tmp_path / "trace.json"
    jsonl = tmp_path / "spans.jsonl"
    code = main([
        "point", "HopsFS-CL (3,3)", "--servers", "3",
        "--warmup", "3", "--window", "3",
        "--trace", str(trace), "--trace-jsonl", str(jsonl),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Latency breakdown" in out
    assert "perfetto" in out
    doc = json.loads(trace.read_text())
    assert validate_chrome_trace(doc) == []
    assert any(e.get("name") == "client.op" for e in doc["traceEvents"])
    first = json.loads(jsonl.read_text().splitlines()[0])
    assert "span_id" in first


def test_report_prints_breakdown_per_setup(capsys):
    code = main([
        "report", "--setups", "HopsFS (2,1)", "CephFS",
        "--servers", "1", "--warmup", "3", "--window", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("Latency breakdown") == 2
    assert "HopsFS (2,1)" in out
    assert "CephFS" in out


def test_report_unknown_setup(capsys):
    assert main(["report", "--setups", "NopeFS"]) == 2


def test_chaos_list(capsys):
    assert main(["chaos", "list"]) == 0
    out = capsys.readouterr().out
    assert "az-outage-under-load" in out
    assert "hopsfs-cl-3-3" in out
    assert "HopsFS-CL (3,3)" in out


def test_chaos_unknown_scenario(capsys):
    assert main(["chaos", "warp-core-breach"]) == 2


def test_chaos_unknown_setup(capsys):
    assert main(["chaos", "az-outage-under-load", "--setup", "nope"]) == 2


@pytest.mark.parametrize("scenario,setup,reason", [
    ("nn-churn", "cephfs", "HopsFS-only"),
    ("network-partition", "hopsfs-2-1", "spans one AZ"),
])
def test_chaos_unsupported_cell_is_an_answer_not_a_traceback(scenario, setup, reason, capsys):
    assert main(["chaos", scenario, "--setup", setup]) == 2  # 1 is a red invariant
    err = capsys.readouterr().err
    assert err.startswith("unsupported: ") and reason in err


def test_chaos_runs_and_writes_json(tmp_path, capsys):
    import json

    out_path = tmp_path / "chaos.json"
    code = main([
        "chaos", "az-outage-under-load",
        "--setup", "hopsfs-cl-3-3", "--servers", "2",
        "--json", str(out_path), "--trace",
    ])
    out = capsys.readouterr().out
    assert code == 0  # all invariants green
    assert "availability timeline" in out
    assert "[PASS]" in out
    assert "chaos.fault" in out
    doc = json.loads(out_path.read_text())
    assert doc["all_green"] is True
    assert doc["setup"] == "HopsFS-CL (3,3)"
    assert len(doc["fault_trace"]) == len(doc["schedule"]) == 2


def _subparser(parser, command):
    (action,) = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    return action.choices[command]


def test_generated_flags_take_type_and_default_from_their_dataclass():
    from repro import cli
    from repro.experiments.scale import ScaleConfig
    from repro.hopsfs.groupcommit import AsyncCommitConfig

    parser = cli.build_parser()
    for argv, config, table in (
        (["scale"], ScaleConfig(), cli._SCALE_FLAGS),
        (["point", "cephfs"], AsyncCommitConfig(), cli._ASYNC_FLAGS),
    ):
        args = parser.parse_args(argv)
        for flag, name, _help in table:
            assert getattr(args, name) == getattr(config, name), flag
    # chaos's elastic flags edit the scenario's config: unset leaves it alone.
    args = parser.parse_args(["chaos", "nn-churn"])
    assert all(getattr(args, name) is None for _f, name, _h in cli._ELASTIC_FLAGS)
    args = parser.parse_args(
        ["chaos", "nn-churn", "--autoscale-min", "2", "--autoscale-cooldown", "7"])
    assert (args.min_nns_per_az, args.cooldown_ms) == (2, 7.0)
    assert isinstance(args.cooldown_ms, float)


def test_every_flag_of_the_pr22_cli_is_still_there():
    from repro import cli

    flags = {
        "point": "--servers --warmup --window --trace --trace-jsonl --async-commit "
                 "--linger --batch-ops --listing-cache",
        "report": "--setups --servers --warmup --window --json",
        "perf": "--out",
        "scale": "--setup --servers --population --rate --duration --warmup --seed "
                 "--shards --workers --zipf-s --detail-every --scenario --smoke --json",
        "chaos": "--scenario --setup --servers --seed --json --autoscale-min "
                 "--autoscale-max --autoscale-cooldown --membership-refresh "
                 "--listing-cache --trace",
        "monitor": "--setup --servers --seed --grace --json",
    }
    parser = cli.build_parser()
    for command, expected in flags.items():
        have = {opt for action in _subparser(parser, command)._actions
                for opt in action.option_strings} - {"-h", "--help"}
        assert have == set(expected.split()), command


def test_chaos_list_prints_what_each_scenario_needs(capsys):
    assert main(["chaos", "list"]) == 0
    out = capsys.readouterr().out
    assert "[min_azs=2, stack=any]" in out and "[min_azs=1, stack=hopsfs]" in out
