"""The settable values hold their recorded ceiling.

``benchmarks/code_lines.py --knobs`` counts the config fields of the opt-in
paths and the keyword parameters of the builders.  A change that adds one
raises the ceiling here on purpose and says why in CHANGES.md.
"""

from pathlib import Path

from benchmarks.code_lines import _totals, count_knobs

CEILING = {"config fields total": 14, "keyword parameters total": 24}


def test_knob_count_holds_its_ceiling():
    counts = count_knobs(Path(__file__).resolve().parents[1] / "src" / "repro")
    totals = _totals(counts, knobs=True)
    assert all(totals[name] <= ceiling for name, ceiling in CEILING.items()), (totals, counts)
