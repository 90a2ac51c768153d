"""Experiment harness: the nine setups, the runner, and figure drivers."""

from .runner import PointResult, RunConfig, run_point, server_grid
from .scale import ScaleConfig, run_scale
from .setups import BENCH, CHAOS, SETUPS, SetupSpec, resolve_setup, setup_slug

__all__ = [
    "PointResult",
    "RunConfig",
    "run_point",
    "server_grid",
    "ScaleConfig",
    "run_scale",
    "SETUPS",
    "SetupSpec",
    "BENCH",
    "CHAOS",
    "resolve_setup",
    "setup_slug",
]
