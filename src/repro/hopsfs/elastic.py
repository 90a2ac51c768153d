"""Elastic metadata serving: dynamic NN pool reconfiguration.

The paper's central architectural claim is that HopsFS namenodes are
*stateless* metadata workers over NDB — any NN can serve any request, so
the serving tier can grow and shrink at runtime without data movement.
This module supplies the pieces the static build path lacks:

* :class:`ElasticConfig` — the opt-in switch and the values scenarios
  set (refresh and autoscale periods, the scale-in trigger, pool bounds,
  cooldown).
* :func:`membership_refresh` and :func:`start_autoscaler` — the path's
  parts, built once per client and per deployment: each client's
  membership-refresh loop and the autoscaler.  Off
  (``HopsFsConfig.elastic`` None), no loop or autoscaler starts (no
  events), so the fixed pool stays on the pinned golden schedules.
* :class:`ReconfigEvent` / :class:`ProvisionRecord` — the reconfiguration
  log and per-NN provisioned-interval accounting behind the artifact's
  two headline metrics: reconfiguration latency (decision →
  client-visible capacity) and cost-normalized throughput (ops/s per
  NN·second provisioned).
* :class:`Autoscaler` — a load-driven DES process that scales the pool on
  ``nn.shed`` admission pressure and per-AZ utilization, with cooldowns
  and a min/max per AZ.  The min-per-AZ floor doubles as the replacement
  policy under spot preemption: a preempted (or draining) NN stops
  counting toward its AZ, so the next tick provisions a successor.

Determinism: the whole reconfiguration path is driven by DES timers and
plain counter reads — it draws from no RNG stream, and every poll period
is fixed by config, so the same seed and schedule dispatch the exact same
event sequence run-to-run (the scenario harness pins this by hashing the
dispatch trace).  The lifecycle methods themselves live on
``HopsFsDeployment`` (:mod:`repro.hopsfs.filesystem`); this module holds
the config, the log records, and the autoscaler that drives them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from ..obs.metrics import count
from .robust import admission_cap

__all__ = [
    "ElasticConfig",
    "membership_refresh",
    "start_autoscaler",
    "ProvisionRecord",
    "ReconfigEvent",
    "Autoscaler",
    "elastic_summary",
]


@dataclass(frozen=True)
class ElasticConfig:
    """Knobs for the elastic serving tier.  All opt-in via ``HopsFsConfig``."""

    # Clients re-fetch the leader-maintained membership view this often and
    # swap it in for the static bootstrap list (stale breakers/hedge state
    # for removed NNs is dropped on the same refresh).
    membership_refresh_ms: float = 40.0
    # Autoscaler process.  ``autoscale=False`` keeps membership refresh and
    # the manual add/decommission lifecycle but spawns no scaling loop —
    # the ``nn-churn`` scenario drives churn purely from its schedule.
    autoscale: bool = True
    autoscale_interval_ms: float = 50.0
    # Scale-in trigger: every AZ's mean utilization below this floor.
    scale_down_utilization: float = 0.10
    min_nns_per_az: int = 1
    max_nns_per_az: int = 4
    # No two scaling decisions closer than this (per direction-agnostic).
    cooldown_ms: float = 120.0

    def __post_init__(self) -> None:
        if self.membership_refresh_ms <= 0:
            raise ConfigError("membership_refresh_ms must be positive")
        if self.autoscale_interval_ms <= 0:
            raise ConfigError("autoscale_interval_ms must be positive")
        if self.min_nns_per_az < 1:
            raise ConfigError("min_nns_per_az must be at least 1")
        if self.max_nns_per_az < self.min_nns_per_az:
            raise ConfigError("max_nns_per_az must be >= min_nns_per_az")
        if self.cooldown_ms < 0:
            raise ConfigError("cooldown_ms must be >= 0")
        if not 0.0 <= self.scale_down_utilization < Autoscaler.SCALE_UP_UTILIZATION:
            raise ConfigError(
                "need 0 <= scale_down_utilization < Autoscaler.SCALE_UP_UTILIZATION"
            )


def membership_refresh(client, config: Optional[ElasticConfig]) -> Optional[float]:
    """The elastic client part: start ``client``'s loop that swaps its
    server list for the leader-maintained view every
    ``membership_refresh_ms``; that period, or None (no loop) with the path
    off."""
    if config is None:
        return None
    period = config.membership_refresh_ms
    client.env.process(_refresh_every(client, period), name=f"{client.addr}:membership")
    return period


def _refresh_every(client, period_ms: float):
    env = client.env
    while True:
        yield env.timeout(period_ms)
        yield from client.refresh_membership()


def start_autoscaler(deployment, config: Optional[ElasticConfig]) -> Optional["Autoscaler"]:
    """The elastic deployment part: its started autoscaler, or None (a fixed
    pool, or ``autoscale`` off)."""
    if config is None or not config.autoscale:
        return None
    scaler = Autoscaler(deployment, config)
    scaler.start()
    return scaler


@dataclass
class ProvisionRecord:
    """One NN's provisioned interval, for NN·second cost accounting."""

    nn_id: int
    address: str
    az: int
    start_ms: float
    end_ms: Optional[float] = None  # None ⇒ still provisioned

    def nn_ms(self, now_ms: float) -> float:
        end = self.end_ms if self.end_ms is not None else now_ms
        return max(0.0, end - self.start_ms)


@dataclass
class ReconfigEvent:
    """One pool reconfiguration, from decision to client-visible capacity.

    ``decided_ms`` is when the operator/autoscaler committed to the change;
    ``completed_ms`` when the lifecycle finished (new NN serving, or drained
    NN fully stopped); ``visible_ms`` when the leader-maintained membership
    view — the thing clients actually read — reflects it.  The artifact's
    reconfiguration latency is ``visible_ms - decided_ms``.
    """

    kind: str  # "add" | "decommission" | "preempt"
    nn_id: int
    address: str
    az: int
    decided_ms: float
    completed_ms: Optional[float] = None
    visible_ms: Optional[float] = None
    detail: str = ""
    # Graceful-drain audit (decommission only): acked-but-uncommitted
    # group-commit batches settled during the drain.  The drained-NN ack
    # invariant pins this at zero.
    lost_acks_during_drain: int = 0
    forced_shutdown: bool = False  # grace expired with ops still in flight

    @property
    def latency_ms(self) -> Optional[float]:
        if self.visible_ms is None:
            return None
        return self.visible_ms - self.decided_ms

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "nn_id": self.nn_id,
            "address": self.address,
            "az": self.az,
            "decided_ms": self.decided_ms,
            "completed_ms": self.completed_ms,
            "visible_ms": self.visible_ms,
            "latency_ms": self.latency_ms,
            "detail": self.detail,
            "lost_acks_during_drain": self.lost_acks_during_drain,
            "forced_shutdown": self.forced_shutdown,
        }


class Autoscaler:
    """Load-driven NN pool scaling, as a deterministic DES process.

    Signals, sampled every ``autoscale_interval_ms``:

    * **Replacement floor** — any AZ with fewer than ``min_nns_per_az``
      serving (running, non-draining) NNs gets a new one immediately.
      This is what restores capacity after a spot preemption.
    * **Admission pressure** — the windowed delta of ``nn.ops_shed``
      across the pool; at/above ``SCALE_UP_SHED_THRESHOLD`` the hottest
      AZ scales out.
    * **Utilization** — per-AZ mean of in-flight ops over the admission
      cap (``robust.nn_max_inflight``, or ``nn_cores`` without one).
      At or above ``SCALE_UP_UTILIZATION`` scales the hottest AZ out; when every
      AZ sits below ``scale_down_utilization`` the most-populated AZ
      retires its highest-id non-leader NN via the graceful drain path.

    One scaling action per tick, gated by ``cooldown_ms`` (the replacement
    floor ignores the cooldown — restoring a dead AZ must not wait).  The
    loop reads counters and does arithmetic only: no RNG, fixed periods.
    """

    # Admission-control sheds in one interval that trigger a scale-out.
    SCALE_UP_SHED_THRESHOLD = 4
    # The other scale-out trigger: mean in-flight utilization in the
    # hottest AZ.
    SCALE_UP_UTILIZATION = 0.75

    def __init__(self, deployment, config: ElasticConfig):
        self.fs = deployment
        self.config = config
        self.scale_ups = 0
        self.scale_downs = 0
        self.last_action_ms: Optional[float] = None
        self._last_shed = 0
        self._proc = None
        cfg = deployment.config
        self._cap = max(1, admission_cap(cfg.robust, unbounded=cfg.nn_cores))

    def start(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            return
        self._last_shed = self._total_shed()
        self._proc = self.fs.env.process(self._loop(), name="autoscaler")

    # -- signals -----------------------------------------------------------
    def _serving(self) -> list:
        return [
            nn for nn in self.fs.namenodes if nn.running and not nn.draining
        ]

    def _total_shed(self) -> int:
        return sum(nn.ops_shed for nn in self.fs.namenodes)

    def _utilization_by_az(self, serving) -> dict:
        cap = self._cap
        by_az: dict = {}
        for nn in serving:
            by_az.setdefault(nn.az, []).append(nn.inflight / cap)
        return {az: sum(vals) / len(vals) for az, vals in by_az.items()}

    def _cooldown_ok(self, now: float) -> bool:
        return (
            self.last_action_ms is None
            or now - self.last_action_ms >= self.config.cooldown_ms
        )

    # -- the loop ----------------------------------------------------------
    def _loop(self):
        env = self.fs.env
        cfg = self.config
        while True:
            yield env.timeout(cfg.autoscale_interval_ms)
            serving = self._serving()
            counts = {az: 0 for az in self.fs.azs}
            for nn in serving:
                counts[nn.az] = counts.get(nn.az, 0) + 1

            # Replacement floor: an AZ below its minimum gets capacity now.
            refill = sorted(
                az for az, n in counts.items() if n < cfg.min_nns_per_az
            )
            if refill:
                self._scale_up(refill[0], reason="min-per-az")
                continue

            shed = self._total_shed()
            shed_delta = shed - self._last_shed
            self._last_shed = shed
            utilization = self._utilization_by_az(serving)
            if not utilization or not self._cooldown_ok(env.now):
                continue

            hot_az = max(
                utilization, key=lambda az: (utilization[az], -az)
            )
            pressed = (
                shed_delta >= self.SCALE_UP_SHED_THRESHOLD
                or utilization[hot_az] >= self.SCALE_UP_UTILIZATION
            )
            if pressed and counts.get(hot_az, 0) < cfg.max_nns_per_az:
                self._scale_up(hot_az, reason="load")
                continue

            idle = all(
                u <= cfg.scale_down_utilization for u in utilization.values()
            )
            if idle:
                victim = self._pick_scale_in_victim(serving, counts)
                if victim is not None:
                    self.scale_downs += 1
                    self.last_action_ms = env.now
                    count(env, "autoscale.down")
                    # Drain inline: the next sample naturally waits for the
                    # decommission to finish, which is cooldown in itself.
                    yield from self.fs.decommission_namenode(
                        victim, reason="autoscale-down"
                    )

    def _scale_up(self, az: int, reason: str) -> None:
        self.scale_ups += 1
        self.last_action_ms = self.fs.env.now
        count(self.fs.env, "autoscale.up")
        self.fs.add_namenode(az=az, reason=f"autoscale-{reason}")

    def _pick_scale_in_victim(self, serving, counts):
        """Highest-id non-leader NN in the most-populated AZ above min."""
        cfg = self.config
        candidates = [
            nn for nn in serving
            if counts.get(nn.az, 0) > cfg.min_nns_per_az
            and not nn.election.is_leader
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda nn: (counts[nn.az], nn.nn_id))


def elastic_summary(deployment, completed_ops: int, now_ms: float) -> dict:
    """The artifact's elastic section: reconfig latency + cost efficiency."""
    records = deployment.provision_log
    events = deployment.reconfig_log
    nn_ms = sum(r.nn_ms(now_ms) for r in records)
    nn_seconds = nn_ms / 1000.0
    latencies = [e.latency_ms for e in events if e.latency_ms is not None]
    autoscaler = deployment.autoscaler
    return {
        "reconfigurations": [e.as_dict() for e in events],
        "reconfiguration_latency_ms": {
            "count": len(latencies),
            "mean": sum(latencies) / len(latencies) if latencies else None,
            "max": max(latencies) if latencies else None,
        },
        "nn_seconds_provisioned": nn_seconds,
        "ops_per_nn_second": (
            completed_ops / nn_seconds if nn_seconds > 0 else None
        ),
        "pool_size_final": sum(
            1 for nn in deployment.namenodes if nn.running
        ),
        "pool_size_peak": len(records),
        "scale_ups": autoscaler.scale_ups if autoscaler else 0,
        "scale_downs": autoscaler.scale_downs if autoscaler else 0,
    }
