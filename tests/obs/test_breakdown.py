"""Phase-attribution tests over a hand-built span tree."""

import pytest

from repro.obs import Tracer, breakdown_table, phase_breakdown


class _Clock:
    def __init__(self, now=0.0):
        self.now = now


def _build_trace():
    """One stat op: 10 ms total, 4 ms NN handler, 2 ms lock wait, 3 ms block."""
    t = Tracer()
    clock = t._env = _Clock(0.0)
    root = t.start("client.op", op="stat", retries=1)
    rpc = t.start("rpc.fs_op", parent=root, cross_az=True)
    clock.now = 1.0
    nn = t.start("nn.handle", parent=rpc)
    t.record("ndb.lock.wait", 2.0, 4.0, parent=nn)
    clock.now = 5.0
    t.finish(nn)
    t.finish(rpc)
    blk = t.start("rpc.read_block", parent=root, cross_az=False)
    clock.now = 8.0
    t.finish(blk)
    clock.now = 10.0
    t.finish(root)
    return t


def test_phase_breakdown_attribution():
    bd = phase_breakdown(_build_trace())
    assert set(bd) == {"stat"}
    stat = bd["stat"]
    assert stat.count == 1
    assert stat.total_ms == pytest.approx(10.0)
    assert stat.metadata_ms == pytest.approx(4.0)
    assert stat.lock_wait_ms == pytest.approx(2.0)
    assert stat.block_ms == pytest.approx(3.0)
    assert stat.other_ms == pytest.approx(1.0)  # total - attributed
    assert stat.cross_az_hops == 1  # only the cross_az-tagged rpc span
    assert stat.retries == 1


def test_unfinished_roots_are_not_counted():
    t = Tracer()
    t._env = _Clock(0.0)
    t.start("client.op", op="stat")  # in flight at run end
    assert phase_breakdown(t) == {}


def test_breakdown_table_renders():
    table = breakdown_table(_build_trace(), title="T")
    assert table.title == "T"
    assert table.rows[0][0] == "stat"
    rendered = table.render()
    assert "lock wait ms" in rendered and "stat" in rendered


def test_breakdown_table_empty_trace_notes_it():
    t = Tracer()
    t._env = _Clock(0.0)
    assert any("no finished" in n for n in breakdown_table(t).notes)
