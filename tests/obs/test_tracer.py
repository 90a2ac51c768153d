"""Span tracer unit tests: ids, nesting, retrospective spans, views."""

from repro.obs import ObsContext, Span, Tracer
from repro.sim.kernel import Environment


class _Clock:
    """Minimal stand-in for an Environment: just the clock the tracer reads."""

    def __init__(self, now=0.0):
        self.now = now


def _tracer(now=0.0):
    t = Tracer()
    t._env = _Clock(now)
    return t


def test_span_ids_dense_and_ordered():
    t = _tracer()
    spans = [t.start(f"s{i}") for i in range(5)]
    assert [s.span_id for s in spans] == [1, 2, 3, 4, 5]
    assert t.spans == spans


def test_parent_child_nesting():
    t = _tracer()
    root = t.start("client.op", op="stat")
    child = t.start("rpc.fs_op", parent=root)
    grandchild = t.start("nn.handle", parent=child.span_id)  # raw-id form
    assert root.parent_id is None
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id
    index = t.children_index()
    assert index[None] == [root]
    assert index[root.span_id] == [child]
    assert index[child.span_id] == [grandchild]


def test_start_finish_uses_simulated_clock():
    t = _tracer(now=10.0)
    span = t.start("op")
    assert span.start_ms == 10.0
    assert not span.finished
    assert span.duration_ms == 0.0
    t._env.now = 12.5
    t.finish(span, ok=True)
    assert span.end_ms == 12.5
    assert span.duration_ms == 2.5
    assert span.tags["ok"] is True
    assert t.finished_spans() == [span]


def test_record_retrospective_span():
    t = _tracer(now=50.0)
    span = t.record("ndb.lock.wait", 42.0, 49.0, mode="X")
    assert span.finished
    assert span.start_ms == 42.0 and span.end_ms == 49.0
    assert span.duration_ms == 7.0
    assert span.tags == {"mode": "X"}


def test_event_is_zero_duration():
    t = _tracer(now=7.0)
    span = t.event("election.leader_change", old=1, new=2)
    assert span.start_ms == span.end_ms == 7.0
    assert span.duration_ms == 0.0


def test_max_spans_drops_and_counts():
    t = Tracer(max_spans=2)
    t._env = _Clock()
    a = t.start("a")
    b = t.start("b")
    c = t.start("c")  # over budget: recorded nowhere
    assert len(t.spans) == 2
    assert t.dropped == 1
    assert c.span_id == 0  # sentinel id; finish() on it is still safe
    t.finish(c)
    assert t.spans == [a, b]


def test_as_dict_round_trips_fields():
    span = Span(3, 1, "rpc.tc_read", 1.0, 2.0, {"host": "dn1"})
    d = span.as_dict()
    assert d == {
        "span_id": 3,
        "parent_id": 1,
        "name": "rpc.tc_read",
        "start_ms": 1.0,
        "end_ms": 2.0,
        "tags": {"host": "dn1"},
    }


def test_obs_context_attach_detach():
    env = Environment()
    assert env.obs is None
    obs = ObsContext()
    obs.attach(env)
    assert env.obs is obs
    assert obs.tracer._env is env
    obs.detach()
    assert env.obs is None
