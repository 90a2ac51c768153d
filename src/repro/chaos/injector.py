"""The fault injector: a DES process that executes a fault schedule.

Determinism contract: the injector walks the schedule in ``(at_ms,
insertion order)`` order, sleeping to each event's absolute fire time and
executing it synchronously within one simulation instant (node recovery
may itself take simulated time — fragment copies, journal replays — in
which case later events fire no earlier than the recovery completes).
Elastic membership actions (``add_namenode`` / ``decommission_namenode``
/ ``preempt_namenode``) return immediately: drains and preemption
warnings run as background deployment processes so a churn storm never
skews the fire times of later schedule events.
It draws from no RNG, so the same schedule against the same seeded
deployment reproduces a bit-identical kernel dispatch sequence; with
tracing attached it only *records* (``chaos.fault`` spans and per-action
counters), never schedules, keeping traced runs schedule-neutral.
"""

from __future__ import annotations

from ..errors import ReproError
from ..experiments.setups import Harness
from .schedule import FaultEvent, FaultSchedule, parse_node

__all__ = ["FaultInjector"]


def _crash_node(harness, event) -> str:
    addr = parse_node(event.node)
    harness.crash(addr)
    return f"crashed {addr}"


def _az_outage(harness, event) -> str:
    crashed = []
    for addr in harness.addrs_in_az(event.az):
        if harness.is_running(addr):
            harness.crash(addr)
            crashed.append(str(addr))
    return f"az{event.az} down: {','.join(crashed)}"


def _partition(harness, event) -> str:
    harness.network.partition_azs(*event.groups)
    a, b = event.groups
    return f"partitioned az{list(a)} | az{list(b)}"


def _heal(harness, event) -> str:
    harness.network.heal_partitions()
    harness.on_heal()
    return "healed partitions"


def _degrade_link(harness, event) -> str:
    az_a, az_b = event.az_pair
    harness.network.degrade_link(az_a, az_b, event.extra_ms)
    return f"degraded az{az_a}-az{az_b} by {event.extra_ms}ms"


def _restore_links(harness, event) -> str:
    harness.network.restore_links()
    return "restored links"


# action -> primitive(harness, event) returning the description; each takes
# effect within one instant and is followed by one kernel step.
_IMMEDIATE = {
    "crash_node": _crash_node,
    "az_outage": _az_outage,
    "partition": _partition,
    "heal": _heal,
    "degrade_link": _degrade_link,
    "restore_links": _restore_links,
    "add_namenode": lambda h, e: h.add_namenode(e.az),
    "decommission_namenode": lambda h, e: h.decommission_namenode(parse_node(e.node)),
    "preempt_namenode": lambda h, e: h.preempt_namenode(parse_node(e.node), e.extra_ms),
}


def _recover_down(harness, addrs):
    """Generator: bring back whichever of ``addrs`` is down (recovery may
    take simulated time: fragment copies, journal replays); returns them."""
    recovered = []
    for addr in addrs:
        if not harness.is_running(addr):
            yield from harness.recover(addr)
            recovered.append(str(addr))
    return ",".join(recovered)


class FaultInjector:
    """Executes a :class:`FaultSchedule` against a deployment harness."""

    def __init__(self, harness: Harness, schedule: FaultSchedule):
        self.harness = harness
        self.schedule = schedule
        self.env = harness.env
        # The executed fault trace: (fire time, action, description).
        self.trace: list[tuple[float, str, str]] = []
        self.process = None

    def start(self):
        """Spawn the injector process; returns it (yieldable to await)."""
        self.process = self.env.process(self.run(), name="chaos-injector")
        return self.process

    def run(self):
        # Event times are relative to injector start: "t=60ms" means 60ms
        # after the load began, regardless of how long election/preload took.
        origin = self.env.now
        for event in self.schedule.events:
            delay = origin + event.at_ms - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            yield from self._execute(event)

    def _execute(self, event):
        obs = self.env.obs
        span = None
        if obs is not None:
            span = obs.tracer.start(
                "chaos.fault",
                action=event.action,
                detail=event.describe(),
                scheduled_ms=event.at_ms,
            )
            obs.registry.counter(f"chaos.fault.{event.action}").inc()
        try:
            detail = yield from self._apply(event)
        finally:
            if obs is not None:
                obs.tracer.finish(span)
        self.trace.append((self.env.now, event.action, detail))

    def _apply(self, event: FaultEvent):
        """Generator: execute one fault event; returns a description string."""
        harness = self.harness
        action = event.action
        if action == "recover_node":
            addr = parse_node(event.node)
            yield from harness.recover(addr)
            return f"recovered {addr}"
        if action == "az_heal":
            back = yield from _recover_down(harness, harness.addrs_in_az(event.az))
            detail = f"az{event.az} healed: {back}"
        elif action == "recover_all":
            back = yield from _recover_down(harness, harness.managed_addrs())
            detail = f"recovered all: {back or '(none down)'}"
        elif action in _IMMEDIATE:
            detail = _IMMEDIATE[action](harness, event)
        else:
            raise ReproError(f"unknown fault action {action!r}")
        yield self.env.timeout(0)
        return detail
