"""Deterministic fault injection for both stacks (the chaos layer).

Declarative :class:`FaultSchedule`\\ s of timed :class:`FaultEvent`\\ s —
node crashes/recoveries, AZ outages, network partitions, degraded links —
are executed inside the DES by a :class:`FaultInjector` against the
:class:`~repro.experiments.setups.Harness` of either stack.  Runs are
schedule-deterministic (same seed + schedule ⇒ bit-identical kernel
dispatch sequence) and verified against the invariant catalogue in
:mod:`repro.chaos.invariants`.  ``python -m repro chaos`` drives the
named scenarios in :mod:`repro.chaos.scenarios`.
"""

from .injector import FaultInjector
from .invariants import (
    InvariantVerdict,
    verify_cephfs,
    verify_hopsfs,
    verify_target,
)
from .schedule import ACTIONS, FaultEvent, FaultSchedule, parse_node
from .scenarios import (
    SCENARIOS,
    ChaosRunResult,
    Scenario,
    run_elastic_comparison,
    run_scenario,
)

__all__ = [
    "ACTIONS",
    "FaultEvent",
    "FaultSchedule",
    "parse_node",
    "FaultInjector",
    "InvariantVerdict",
    "verify_hopsfs",
    "verify_cephfs",
    "verify_target",
    "SCENARIOS",
    "Scenario",
    "ChaosRunResult",
    "run_elastic_comparison",
    "run_scenario",
]
