"""Deterministic discrete-event simulation substrate."""

from .kernel import (
    AllOf,
    AnyOf,
    DispatchHash,
    Environment,
    Event,
    Process,
    SimulationError,
    Task,
    Timeout,
    dispatch_hash,
)
from .resources import CorePool, Disk, Store
from .rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Task",
    "Timeout",
    "CorePool",
    "Disk",
    "Store",
    "RngRegistry",
    "dispatch_hash",
    "DispatchHash",
]
