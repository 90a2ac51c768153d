"""Elastic serving tier: runtime NN membership, drains, and the autoscaler."""

import pytest

from repro.errors import ConfigError
from repro.hopsfs import ElasticConfig
from repro.hopsfs.metadata import LEADER_TABLE

from .conftest import make_fs, run

# Fast refresh/poll knobs so tests settle within a few hundred sim ms.
FAST = ElasticConfig(membership_refresh_ms=20.0, autoscale=False)


def elastic_fs(elastic=FAST, num_namenodes=3, **kwargs):
    kwargs.setdefault("azs", (1, 2, 3))
    kwargs.setdefault("az_aware", True)
    fs = make_fs(num_namenodes=num_namenodes, elastic=elastic, **kwargs)
    fs.DRAIN_GRACE_MS = 30.0
    fs.VISIBILITY_POLL_MS = 2.0
    return fs


# ------------------------------------------------------------------ config
def test_elastic_config_validation():
    with pytest.raises(ConfigError):
        ElasticConfig(membership_refresh_ms=0.0)
    with pytest.raises(ConfigError):
        ElasticConfig(min_nns_per_az=0)
    with pytest.raises(ConfigError):
        ElasticConfig(min_nns_per_az=3, max_nns_per_az=2)
    with pytest.raises(ConfigError):
        ElasticConfig(scale_down_utilization=0.8)  # not below the scale-out trigger


# ------------------------------------------------------------------- joins
def test_added_namenode_joins_every_view_and_serves():
    fs = elastic_fs()

    def scenario():
        yield from fs.await_election()
        joiner = fs.add_namenode(az=2, reason="test")
        # Wait for the joiner to win a row and every peer to list it.
        yield fs.env.timeout(300)
        views = [
            sorted(row[0] for row in nn.election.active)
            for nn in fs.namenodes
            if nn.running
        ]
        return joiner, views

    joiner, views = run(fs, scenario())
    expected = sorted(nn.nn_id for nn in fs.namenodes)
    assert all(view == expected for view in views), views
    assert joiner.running and not joiner.draining
    event = fs.reconfig_log[-1]
    assert event.kind == "add" and event.nn_id == joiner.nn_id
    assert event.visible_ms is not None
    assert event.latency_ms >= 0.0


def test_added_namenode_receives_block_heartbeats():
    fs = elastic_fs(num_block_datanodes=3, heartbeats=True)

    def scenario():
        yield from fs.await_election()
        joiner = fs.add_namenode(az=1, reason="test")
        yield fs.env.timeout(120)  # several 20ms heartbeat intervals
        return joiner

    joiner = run(fs, scenario())
    assert all(joiner.addr in dn.namenode_addrs for dn in fs.block_datanodes)
    assert joiner.block_manager.live_dns()


def test_added_namenode_is_wired_like_a_boot_time_one():
    """Runtime and boot-time NNs come out of one constructor path."""
    from repro.hopsfs import AsyncCommitConfig, ListingCacheConfig, RobustConfig

    fs = elastic_fs(
        robust=RobustConfig(),
        async_commit=AsyncCommitConfig(),
        listing_cache=ListingCacheConfig(),
    )
    boot = fs.namenodes[0]
    joiner = fs.add_namenode(az=2, reason="test")
    for nn in (boot, joiner):
        assert nn.mutation_ledger is fs.mutation_ledger
        assert nn.committer is not None and nn.committer.nn is nn
        assert nn.committer.ledger is fs.group_ledger
        assert nn.committer.config is fs.config.async_commit
        assert nn.listing_cache is not None
        assert nn.listing_cache.dir_cache is nn.dir_cache
        # Subscribed, a lost batch flushing this NN's read front.
        assert fs.ndb.changelog._subscribers[nn.addr] == nn.listing_cache.flush
        assert nn.retry_cache is not None
    assert joiner.committer is not boot.committer
    assert joiner.listing_cache is not boot.listing_cache
    assert [rec.nn_id for rec in fs.provision_log] == [nn.nn_id for nn in fs.namenodes]


# ------------------------------------------------------------ decommission
def test_decommission_drains_deregisters_and_converges():
    fs = elastic_fs()

    def scenario():
        yield from fs.await_election()
        victim = fs.namenodes[1]
        yield from fs.decommission_namenode(victim, reason="test")
        assert not victim.running
        # Let the surviving pool re-run election rounds and the visibility
        # watcher observe the departure.
        yield fs.env.timeout(300)
        return victim

    victim = run(fs, scenario())
    assert victim.addr in fs.decommissioned
    survivors = [nn for nn in fs.namenodes if nn.running]
    expected = sorted(nn.nn_id for nn in survivors)
    for nn in survivors:
        assert sorted(row[0] for row in nn.election.active) == expected
    # The leader row was deleted, not left to age out.
    rows = []
    for dn in fs.ndb.datanodes.values():
        if dn.running:
            rows += [row for _pk, row in dn.store.iter_rows(LEADER_TABLE)]
    assert all(row.nn_id != victim.nn_id for row in rows)
    event = next(e for e in fs.reconfig_log if e.kind == "decommission")
    assert event.completed_ms is not None
    assert event.lost_acks_during_drain == 0
    assert not event.forced_shutdown


def test_decommissioned_leader_hands_off():
    fs = elastic_fs()

    def scenario():
        yield from fs.await_election()
        leader = fs.leader_namenode()
        yield from fs.decommission_namenode(leader, reason="test")
        yield fs.env.timeout(300)
        return leader, [
            nn.election.leader_id for nn in fs.namenodes if nn.running
        ]

    old_leader, leader_ids = run(fs, scenario())
    assert len(set(leader_ids)) == 1
    assert leader_ids[0] != old_leader.nn_id


def test_drain_flushes_open_group_commit_batch():
    from repro.hopsfs import AsyncCommitConfig

    fs = elastic_fs(
        async_commit=AsyncCommitConfig(linger_ms=50.0, max_batch_ops=64),
    )
    client = fs.client()

    def scenario():
        yield from fs.await_election()
        yield from client.mkdir("/d")  # early-acked, lingering in a batch
        victim = fs._resolve(client.current_nn)
        assert victim.committer.pending_batches >= 1
        yield from fs.decommission_namenode(victim, reason="test")
        return victim

    victim = run(fs, scenario())
    # The drain forced the open batch to settle as a real commit: nothing
    # the NN acked was lost, and nothing is still open.
    assert victim.committer.pending_batches == 0
    assert fs.group_ledger.lost_acks == 0
    assert all(
        b.state in ("committed", "aborted")
        for b in fs.group_ledger.batches.values()
    )


# ---------------------------------------------------------------- preempt
def test_preemption_kills_after_warning_window():
    fs = elastic_fs()

    def scenario():
        yield from fs.await_election()
        victim = fs.namenodes[2]
        yield from fs.preempt_namenode(victim, warning_ms=5.0)
        return victim, fs.env.now

    victim, _now = run(fs, scenario())
    assert not victim.running
    assert victim.addr in fs.preempted
    event = next(e for e in fs.reconfig_log if e.kind == "preempt")
    assert event.completed_ms is not None


# ----------------------------------------------------------------- client
def test_client_tracks_membership_and_prunes_breaker_state():
    from repro.hopsfs import RobustConfig

    fs = elastic_fs(robust=RobustConfig())
    client = fs.client()

    def scenario():
        yield from fs.await_election()
        joiner = fs.add_namenode(az=1, reason="test")
        victim = fs.namenodes[0]
        # Poison breaker state for the victim; the refresh after its
        # departure must drop it.
        client.bounds.breakers[victim.addr]
        yield from fs.decommission_namenode(victim, reason="test")
        yield fs.env.timeout(400)  # rounds + refreshes
        return joiner, victim

    joiner, victim = run(fs, scenario())
    assert client.membership_refreshes > 0
    assert joiner.addr in client.namenode_addrs
    assert victim.addr not in client.namenode_addrs
    assert victim.addr not in client.bounds.breakers
    assert client.current_nn != victim.addr


def test_client_redirects_off_draining_namenode_without_failing():
    from repro.hopsfs import RobustConfig

    fs = elastic_fs(robust=RobustConfig())
    client = fs.client()

    def scenario():
        yield from fs.await_election()
        yield from client.mkdir("/before")
        target = fs._resolve(client.current_nn)
        target.draining = True  # bounce every new op with the drain error
        yield from client.mkdir("/after")  # must succeed via a peer
        return target

    target = run(fs, scenario())
    assert client.current_nn != target.addr
    assert target.addr in client._draining_nns
    assert target.addr not in client.namenode_addrs


def test_fail_stop_client_redirects_off_draining_namenode():
    """The one request loop redirects on a drain without ``robust`` too:
    one redirect, no fail-over, no back-off."""
    fs = elastic_fs()
    client = fs.client()

    def scenario():
        yield from fs.await_election()
        yield from client.mkdir("/before")
        target = fs._resolve(client.current_nn)
        target.draining = True
        yield from client.mkdir("/after")
        return target

    target = run(fs, scenario())
    assert client.current_nn != target.addr
    assert target.addr in client._draining_nns
    assert (client.failovers, client.last_op_failures) == (0, 0)


# -------------------------------------------------------------- autoscaler
def test_autoscaler_replaces_preempted_capacity():
    fs = elastic_fs(
        elastic=ElasticConfig(
            membership_refresh_ms=20.0,
            autoscale_interval_ms=20.0,
            cooldown_ms=20.0,
            min_nns_per_az=1,
            max_nns_per_az=2,
        ),
    )

    def scenario():
        yield from fs.await_election()
        victim = fs.namenodes[0]
        yield from fs.preempt_namenode(victim, warning_ms=2.0)
        yield fs.env.timeout(100)  # a few autoscaler ticks
        return victim

    victim = run(fs, scenario())
    assert fs.autoscaler.scale_ups >= 1
    serving_azs = {nn.az for nn in fs.serving_namenodes()}
    assert victim.az in serving_azs  # the floor refilled the AZ
    kinds = [e.kind for e in fs.reconfig_log]
    assert kinds.count("add") >= 1 and kinds.count("preempt") == 1


def test_autoscaler_scales_down_idle_pool():
    fs = elastic_fs(
        num_namenodes=6,  # 2 per AZ
        elastic=ElasticConfig(
            membership_refresh_ms=20.0,
            autoscale_interval_ms=20.0,
            cooldown_ms=20.0,
            min_nns_per_az=1,
            max_nns_per_az=2,
            scale_down_utilization=0.2,
        ),
    )

    def scenario():
        yield from fs.await_election()
        yield fs.env.timeout(600)  # idle: ticks retire the surplus NNs

    run(fs, scenario())
    assert fs.autoscaler.scale_downs >= 1
    counts = {}
    for nn in fs.serving_namenodes():
        counts[nn.az] = counts.get(nn.az, 0) + 1
    assert all(n >= 1 for n in counts.values())
    assert sum(counts.values()) < 6
    # Every retirement went through the graceful path.
    for event in fs.reconfig_log:
        assert event.kind == "decommission"
        assert event.lost_acks_during_drain == 0


def test_elastic_summary_reports_latency_and_cost():
    fs = elastic_fs()

    def scenario():
        yield from fs.await_election()
        fs.add_namenode(az=3, reason="test")
        yield from fs.decommission_namenode(fs.namenodes[0], reason="test")
        yield fs.env.timeout(300)

    run(fs, scenario())
    from repro.hopsfs import elastic_summary

    summary = elastic_summary(fs, completed_ops=100, now_ms=fs.env.now)
    assert summary["reconfiguration_latency_ms"]["count"] >= 1
    assert summary["nn_seconds_provisioned"] > 0
    assert summary["ops_per_nn_second"] > 0
    assert summary["pool_size_peak"] == 4
    assert len(summary["reconfigurations"]) == 2
