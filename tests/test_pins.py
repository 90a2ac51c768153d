"""The pin registry (``benchmarks/pins.py``), ``repin.py`` and the identity
classifier of ``schedule_identity.py`` — without running a single producer.

Every registered artifact is copied to a scratch root and its producer is
replaced by "return what the committed file holds", so what is under test is
the machinery: a perturbed value is caught and named, an unperturbed file is
left byte for byte alone, a re-pin restores exactly the committed bytes.
``benchmarks/test_pins.py`` runs the real producers (not tier-1).
"""

import dataclasses
import json
import os

import pytest

from benchmarks import repin
from benchmarks.pins import PINS, ROOT, Pin, ceiling, exact, floor
from benchmarks.schedule_identity import (
    DIFFERENT,
    IDENTICAL,
    RESULT_IDENTICAL,
    bounds_of,
    classify,
    movement,
    weakest,
)


def _leaves(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, path + (key,))
    else:
        yield path, doc


def _with_leaf(doc, path, value):
    if not path:
        return value
    return {**doc, path[0]: _with_leaf(doc[path[0]], path[1:], value)}


def _mutations(value):
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, (int, float)):
        return [value * 0.5 - 1, value * 2 + 1]  # a pinned ceiling only minds the first
    if isinstance(value, str):
        return [value + "x"]
    if isinstance(value, list):
        return [value + [0]]
    return []


def _perturbed(pin, doc):
    """``doc`` with the first single value changed that the pin's rule minds."""
    if isinstance(doc, str):
        digit = next(i for i, char in enumerate(doc) if char.isdigit())
        return doc[:digit] + str((int(doc[digit]) + 1) % 10) + doc[digit + 1:]
    for path, value in _leaves(doc):
        for mutated in _mutations(value):
            candidate = _with_leaf(doc, path, mutated)
            if pin.problems(candidate, doc):
                return candidate
    raise AssertionError(f"{pin.name}: no single value the rule {pin.rule.__name__} minds")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A root holding a copy of every committed artifact, and the registry
    with each producer stubbed to return the committed content."""
    root = tmp_path_factory.mktemp("pins")
    stubbed = {}
    for pin in PINS.values():
        doc = pin.read()
        assert doc is not None, f"{pin.name}: {pin.path} is registered but not committed"
        target = root / pin.path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes((ROOT / pin.path).read_bytes())
        stubbed[pin.name] = _Stub(**dataclasses.asdict(pin), doc=doc)
    return root, stubbed


@dataclasses.dataclass(frozen=True)
class _Stub(Pin):
    doc: object = None

    def produce(self):
        return self.doc


def test_the_registry_is_well_formed():
    assert len(PINS) == 8 + 14  # seven kinds of JSON pin + the chaos matrix, 14 tables
    for pin in PINS.values():
        module, _, function = pin.producer.partition(":")
        assert module and function, pin
    paths = [pin.path for pin in PINS.values()]
    assert len(set(paths)) == len(paths)


@pytest.mark.parametrize("name", list(PINS))
def test_one_perturbed_value_is_caught_and_named(scratch, name):
    root, pins = scratch
    path = root / pins[name].path
    committed = path.read_bytes()
    neighbour = pins["golden_setups" if name != "golden_setups" else "golden_kernel"]
    try:
        pins[name].write(_perturbed(pins[name], pins[name].doc), root)
        said = []
        assert repin.run([neighbour, pins[name]], check=True, root=root, out=said.append) == [name]
        assert any(line.startswith(f"{name}: DIFFERS") for line in said)
        assert path.read_bytes() != committed  # --check wrote nothing back
        # ... and a re-pin restores the committed file byte for byte.
        assert repin.run([neighbour, pins[name]], check=False, root=root, out=said.append) == [name]
        assert path.read_bytes() == committed
    finally:
        path.write_bytes(committed)


def test_a_clean_tree_is_left_alone_byte_for_byte(scratch):
    root, pins = scratch
    before = {name: (root / pin.path).read_bytes() for name, pin in pins.items()}
    stamps = {name: (root / pin.path).stat().st_mtime_ns for name, pin in pins.items()}
    assert repin.run(pins.values(), check=True, root=root, out=lambda _line: None) == []
    assert repin.run(pins.values(), check=False, root=root, out=lambda _line: None) == []
    assert {name: (root / pin.path).read_bytes() for name, pin in pins.items()} == before
    assert {name: (root / pin.path).stat().st_mtime_ns for name, pin in pins.items()} == stamps


def test_wall_clock_fields_are_never_compared_and_never_a_reason_to_write(scratch):
    root, pins = scratch
    pin = pins["BENCH_kernel"]
    path = root / pin.path
    committed = path.read_bytes()
    noisy = json.loads(committed)
    noisy["microbench"]["events_per_sec"] //= 2
    noisy["microbench"]["events_per_sec_runs"] = [1, 2, 3]
    noisy["scale_point"]["aggregate_events_per_sec"] += 12345
    noisy["peak_rss_mb"] += 100.0
    history = root / "BENCH_history.jsonl"
    history.write_text("")
    try:
        path.write_text(json.dumps(noisy, indent=2, sort_keys=True) + "\n")
        elsewhere = path.read_bytes()
        assert repin.run([pin], check=True, root=root, out=lambda _line: None) == []
        assert repin.run([pin], check=False, root=root, out=lambda _line: None) == []
        assert path.read_bytes() == elsewhere and history.read_text() == ""
        # A simulated field moves: the file is written, wall-clock fields and all.
        noisy["fig5_point"]["events"] += 1
        path.write_text(json.dumps(noisy, indent=2, sort_keys=True) + "\n")
        said = []
        assert repin.run([pin], check=False, root=root, out=said.append) == ["BENCH_kernel"]
        events = pin.doc["fig5_point"]["events"]
        assert [line.strip() for line in said[1:]] == [
            f"fig5_point.events: {events + 1} -> {events}  (-0.00%)"]
        assert path.read_bytes() == committed
        # The one write path keeps the trajectory: a history line per write.
        [line] = map(json.loads, history.read_text().splitlines())
        assert line["microbench_events_per_sec"] == pin.doc["microbench"]["events_per_sec"]
    finally:
        path.write_bytes(committed)


def test_a_missing_artifact_differs_and_a_repin_creates_it(scratch):
    root, pins = scratch
    pin = pins["chaos_matrix"]
    path = root / pin.path
    committed = path.read_bytes()
    path.unlink()
    try:
        assert repin.run([pin], check=True, root=root, out=lambda _line: None) == ["chaos_matrix"]
        assert not path.exists()
        assert repin.run([pin], check=False, root=root, out=lambda _line: None) == ["chaos_matrix"]
        assert path.read_bytes() == committed
    finally:
        path.write_bytes(committed)


def test_unknown_names_are_refused_with_the_names_there_are(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
    with pytest.raises(SystemExit, match="unknown artifact") as refused:
        repin.main(["--check", "no_such_pin"])
    assert all(name in str(refused.value) for name in PINS)
    assert os.environ["REPRO_BENCH_SCALE"] == "0.25"  # nothing ran, nothing was set


# -- the three rules ----------------------------------------------------------

def test_ceiling_lets_a_call_count_fall_but_not_rise_and_pins_the_rest():
    assert ceiling("w.ndb.calls_per_op", 100.0, 100.4) is None
    assert ceiling("w.ndb.calls_per_op", 100.0, 80.0) is None
    assert "+0.60%" in ceiling("w.ndb.calls_per_op", 100.0, 100.6)
    assert ceiling("w.ready.calls_per_row", 10.0, 10.2)
    assert ceiling("w.install.tracked_per_row", 1.2, 1.1) is None
    assert ceiling("w.install.tracked_per_row", 1.2, 2.2)
    assert ceiling("w.sim.events_per_op", 50.0, 49.9)  # moves only with the schedule
    assert ceiling("w.sim.events_per_op", 50.0, 50.0) is None
    pin = dataclasses.replace(PINS["call_budget"])
    assert pin.problems({"w": {"ndb.calls_per_op": 1.0, "sim.events_per_op": 2.0}},
                        {"w": {"sim.events_per_op": 2.0}}) == [
        "w.ndb.calls_per_op: not reported any more"]


def test_floor_never_lets_recall_drop_and_ignores_what_is_only_recorded():
    assert floor("s.c.slow-az.recall", 0.8, 1.0) is None
    assert floor("s.c.slow-az.recall", 1.0, 0.75)
    assert floor("s.c.slow-az.false_alert_windows", 0, 1)
    assert floor("s.c.slow-az.ok", True, False)
    assert floor("s.c.slow-az.mean_detection_latency_ms", 20.0, 35.0) is None
    assert floor("s.c.slow-az.precision", 1.0, 0.9) is None


def test_exact_shortens_hashes_and_says_how_far_a_number_moved():
    old, new = "ab" * 32, "cd" * 32
    assert exact("cells.x.dispatch_hash", old, new) == "abababababab… -> cdcdcdcdcdcd…"
    pin = PINS["golden_setups"]
    assert pin.moved({"a": {"completed": 200, "trace_sha256": old}},
                     {"a": {"completed": 210, "trace_sha256": new}}) == [
        "a.completed: 200 -> 210  (+5.00%)",
        "a.trace_sha256: abababababab… -> cdcdcdcdcdcd…",
    ]


# -- schedule_identity's classifier -------------------------------------------

def test_identity_levels_of_a_row_and_of_a_table():
    row = {"schedule": "s1", "result": "r1", "shown": "100 0 {}"}
    assert classify(row, dict(row)) == IDENTICAL
    # Same results from a different schedule: fewer events, another tie-break order.
    assert classify(row, {**row, "schedule": "s2"}) == RESULT_IDENTICAL
    # Different counts move the result digest with them.
    assert classify(row, {"schedule": "s2", "result": "r2", "shown": "101 0 {}"}) == DIFFERENT
    assert classify(row, {**row, "result": "r2"}) == DIFFERENT
    assert (IDENTICAL, RESULT_IDENTICAL, DIFFERENT) == (0, 3, 1)  # the exit codes
    assert weakest([IDENTICAL, IDENTICAL]) == 0
    assert weakest([IDENTICAL, RESULT_IDENTICAL, IDENTICAL]) == 3
    assert weakest([RESULT_IDENTICAL, DIFFERENT]) == 1
    assert weakest([]) == 0


def test_a_differing_row_says_how_far_it_moved_against_its_bounds():
    bounds = bounds_of(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert bounds["sim_p99_ms"] == (0.25, "lower")
    assert bounds["sim_throughput_ops_s"] == (0.05, "higher")
    base = {"completed": 200, "failed": 4, "sim_throughput_ops_s": 1000.0,
            "sim_mean_ms": 2.0, "sim_p99_ms": 8.0}
    head = {"completed": 198, "failed": 4, "sim_throughput_ops_s": 990.0,
            "sim_mean_ms": 1.9, "sim_p99_ms": 9.0}
    assert movement(base, head, bounds) == [
        "completed: 200 -> 198  (-1.00%)",
        "failed: 4 -> 4  (+0.00%)",
        "sim_throughput_ops_s: 1000 -> 990  (-1.00%, 20% of its 5% bound worse)",
        "sim_mean_ms: 2 -> 1.9  (-5.00%, 83% of its 6% bound)",
        "sim_p99_ms: 8 -> 9  (+12.50%, 50% of its 25% bound worse)",
    ]
    # Chaos cells: a verdict change, and counts a cell that did not run lacks.
    green = {"verdict": "green", "completed": 10, "failed": 0}
    assert movement(green, {**green, "verdict": "red", "failed": 2}, bounds) == [
        "verdict: green -> red", "completed: 10 -> 10  (+0.00%)", "failed: 0 -> 2"]
    unsupported = {"verdict": "unsupported:one AZ", "completed": None, "failed": None}
    assert movement(unsupported, green, bounds) == [
        "verdict: unsupported:one AZ -> green", "completed: None -> 10", "failed: None -> 0"]
    assert movement({}, green, bounds) == []  # a cell one tree does not have
