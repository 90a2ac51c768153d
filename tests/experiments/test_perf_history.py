"""``repro perf`` keeps a trajectory: one appended line per recorded run."""

import json

from repro.experiments.perf import HISTORY_FILE, append_history


def _report(rate):
    return {
        "microbench": {"events_per_sec": rate, "events_per_sec_iqr": 10},
        "fig5_point": {"events_per_op": 82.742},
        "cephfs_point": {"events_per_op": 4.2},
        "scale_point": {"aggregate_events_per_sec": 2_500_000,
                        "wall_events_per_sec": 250_000},
        "peak_rss_mb": 85.0,
    }


def test_history_appends_one_comparable_line_per_run(tmp_path):
    path = tmp_path / HISTORY_FILE
    first = append_history(_report(800_000), str(path))
    second = append_history(_report(900_000), str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == [first, second]  # appended, never rewritten
    assert [line["microbench_events_per_sec"] for line in lines] == [800_000, 900_000]
    # Same harness sizes, same fingerprint: the two lines may be compared.
    assert first["config"] == second["config"] and len(first["config"]) == 16
    assert first["git"]  # a revision, or "unknown" outside a checkout
    assert {"fig5_events_per_op", "cephfs_events_per_op",
            "scale_wall_events_per_sec", "peak_rss_mb"} <= set(first)
    # Raw wall rates of the full-stack points are bench_e2e's to measure.
    assert not {"fig5_events_per_sec", "cephfs_events_per_sec",
                "cephfs_gen_us_per_op"} & set(first)
