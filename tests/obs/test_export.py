"""Exporter tests: Chrome trace_event schema, JSONL, and the validator."""

import json

from repro.obs import (
    Tracer,
    chrome_trace,
    spans_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_spans_jsonl,
)


class _Clock:
    def __init__(self, now=0.0):
        self.now = now


def _sample_tracer():
    t = Tracer()
    t._env = _Clock(0.0)
    root = t.start("client.op", op="stat", host="client-1")
    t._env.now = 0.5
    rpc = t.start("rpc.fs_op", parent=root, host="client-1", cross_az=True)
    t._env.now = 1.0
    nn = t.start("nn.handle", parent=rpc, host="nn-1", op="stat")
    t._env.now = 3.0
    t.finish(nn)
    t.finish(rpc, ok=True)
    t._env.now = 3.5
    t.finish(root)
    return t, root, rpc, nn


def test_chrome_trace_schema_is_valid():
    t, *_ = _sample_tracer()
    doc = chrome_trace(t, metadata={"setup": "unit"})
    assert validate_chrome_trace(doc) == []
    assert doc["otherData"]["setup"] == "unit"


def test_chrome_trace_event_fields():
    t, root, rpc, nn = _sample_tracer()
    doc = chrome_trace(t)
    xs = {e["args"]["span_id"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
    ev = xs[nn.span_id]
    assert ev["name"] == "nn.handle"
    assert ev["cat"] == "nn"
    assert ev["pid"] == "nn-1"
    assert ev["ts"] == 1000.0  # 1.0 ms -> us
    assert ev["dur"] == 2000.0
    assert ev["args"]["parent_id"] == rpc.span_id
    # All three spans of the request share one thread track (the root id).
    tids = {e["tid"] for e in xs.values()}
    assert tids == {f"req-{root.span_id}"}
    # One process_name metadata row per host.
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert {e["args"]["name"] for e in meta} == {"client-1", "nn-1"}


def test_unfinished_spans_are_excluded_and_not_referenced():
    t = Tracer()
    t._env = _Clock(0.0)
    root = t.start("client.op", op="stat", host="c")  # never finished
    child = t.start("rpc.fs_op", parent=root, host="c")
    t._env.now = 1.0
    t.finish(child)
    doc = chrome_trace(t)
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["args"]["span_id"] for e in xs] == [child.span_id]
    # The finished child must not point at the unexported root.
    assert "parent_id" not in xs[0]["args"]
    assert validate_chrome_trace(doc) == []


def test_validator_catches_breakage():
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    bad = {
        "traceEvents": [
            {"ph": "X", "pid": "p"},                              # no name
            {"name": "a", "ph": "X", "pid": "p", "ts": -1.0,
             "dur": "x", "args": {}},                              # bad ts/dur
            {"name": "b", "ph": "X", "pid": "p", "ts": 0, "dur": 0,
             "args": {"span_id": 1, "parent_id": 99}},             # dangling parent
        ]
    }
    problems = validate_chrome_trace(bad)
    assert any("missing 'name'" in p for p in problems)
    assert any("'ts' negative" in p for p in problems)
    assert any("'dur' not numeric" in p for p in problems)
    assert any("parent_id 99" in p for p in problems)


def test_write_chrome_trace_and_jsonl(tmp_path):
    t, *_ = _sample_tracer()
    trace_path = tmp_path / "trace.json"
    jsonl_path = tmp_path / "spans.jsonl"
    write_chrome_trace(t, str(trace_path), metadata={"k": "v"})
    write_spans_jsonl(t, str(jsonl_path))
    doc = json.loads(trace_path.read_text())
    assert validate_chrome_trace(doc) == []
    lines = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert len(lines) == len(t.spans) == len(spans_jsonl(t))
    assert [s["span_id"] for s in lines] == [s.span_id for s in t.spans]
    assert lines[0]["name"] == "client.op"
