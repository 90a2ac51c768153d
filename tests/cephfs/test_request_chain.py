"""An MDS or OSD request is one callback chain, traced or not.

No request body of either server is a generator.  Tracing rides the same
chain: a traced CephFS point dispatches the untraced schedule, each
``mds.handle`` span nests under its client's ``rpc.mds_op`` span and
closes at the MDS's reply, and the ``mds.handle.<mds>`` series counts the
replies that failed.
"""

import inspect

from repro.cephfs import build_cephfs
from repro.cephfs.mds import Mds
from repro.cephfs.osd import Osd
from repro.errors import FileNotFoundFsError
from repro.metrics.collectors import MetricsCollector
from repro.obs import ObsContext
from repro.obs.timeseries import TimeSeriesHub
from repro.sim import DispatchHash
from repro.types import OpType
from repro.workloads import ClosedLoopDriver, SpotifyWorkload, generate_namespace
from repro.workloads.namespace import install_cephfs


def test_no_mds_or_osd_request_stage_is_a_generator():
    for cls in (Mds, Osd):
        generators = [name for name, fn in vars(cls).items()
                      if inspect.isgeneratorfunction(fn) and name != "_journal_loop"]
        assert generators == [], cls.__name__


def _point(traced: bool):
    """Twelve closed-loop Spotify clients on a 3-MDS CephFS for 60 sim-ms."""
    ceph = build_cephfs(num_mds=3, seed=4)
    env = ceph.env
    env.trace = DispatchHash()
    obs = ObsContext().attach(env) if traced else None
    replies = []  # (rpc id, instant) of every MDS reply
    reply = ceph.network.reply

    def recording(request, *args, **kwargs):
        if request.kind == "mds_op":
            replies.append((request.rpc_id, env.now))
        reply(request, *args, **kwargs)

    ceph.network.reply = recording
    namespace = generate_namespace(num_top_dirs=2, dirs_per_top=4, files_per_dir=8, seed=4)
    install_cephfs(ceph, namespace)
    collector = MetricsCollector()
    collector.open_window(0)
    driver = ClosedLoopDriver(env, [ceph.client() for _ in range(12)],
                              SpotifyWorkload(namespace, seed=4), collector)
    driver.start()
    env.run(until=60.0)
    driver.stop()
    env.run(until=120.0)
    result = (env.trace.hexdigest(), env._seq, collector.completed, collector.failed,
              [mds.ops_served for mds in ceph.mds_list])
    return result, replies, obs


def test_a_traced_cephfs_point_keeps_the_schedule_and_nests_each_mds_span():
    plain, plain_replies, _ = _point(traced=False)
    traced, replies, obs = _point(traced=True)
    assert traced == plain
    assert replies == plain_replies and replies
    spans = {span.span_id: span for span in obs.tracer.spans}
    handled = [span for span in spans.values() if span.name == "mds.handle"]
    assert len(handled) == len(replies)
    for span in handled:
        rpc = spans[span.parent_id]
        assert rpc.name == "rpc.mds_op" and rpc.tags["dst"] == span.tags["host"]
        assert rpc.start_ms <= span.start_ms <= span.end_ms <= rpc.end_ms
    # Each span closed at the instant its MDS replied.
    assert sorted(span.end_ms for span in handled) == sorted(at for _, at in replies)


def test_not_found_replies_are_mds_handle_errors():
    ceph = build_cephfs(num_mds=1)
    env = ceph.env
    obs = ObsContext(timeseries=TimeSeriesHub()).attach(env)
    client = ceph.client()
    failed = []

    def scenario():
        yield from client.mkdir("/d")
        yield from client.stat("/d")
        for path in ("/nope", "/d/nope"):
            try:
                yield from client.stat(path)
            except FileNotFoundFsError:
                failed.append(path)

    env.run_process(scenario(), until=1_000.0)
    obs.timeseries.finalize(env.now)
    series = obs.timeseries.series[f"mds.handle.{ceph.mds_list[0].addr}"]
    assert failed == ["/nope", "/d/nope"]
    assert sum(window.count for window in series.values()) == 4
    assert sum(window.errors for window in series.values()) == 2
    outcomes = [span.tags["ok"] for span in obs.tracer.spans if span.name == "mds.handle"]
    assert outcomes == [True, True, False, False]
