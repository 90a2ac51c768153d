"""The four benchmark workloads (README.md says why each was chosen).

Sizes are fixed here, not in ``BENCHMARK.json``, whose keys are fixed by
the driver's contract.  All four are closed loops on 6 metadata servers
over the same 8 x 64 x 32 namespace, seeded from ``--seed``; every opt-in
serving path is off unless a workload says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hopsfs import ListingCacheConfig
from repro.types import OpType

__all__ = ["Workload", "WORKLOADS", "WINDOW_FACTOR", "QUICK_FACTOR", "SERVERS"]

SERVERS = 6

# ISSUE.md sizes the windows for ~4-6 s of host time per repetition; the
# driver's cap (92 runs in 3420 s) is tighter than that, so all four
# windows are shrunk by this one common factor.  0.5 is the smallest round
# factor that keeps >= 1000 window samples on ``mkdir_chain`` (p99 needs
# ten samples beyond it).  Warm-ups are not shrunk.
WINDOW_FACTOR = 0.5

# ``--quick`` multiplies ISSUE.md's windows, warm-ups included, by this
# instead.  ``mkdir_chain`` keeps a 15 sim-ms window: its 144 clients start
# together and finish in waves ~9 sim-ms apart, so a shorter window could
# fall between two waves and see no op.
QUICK_FACTOR = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    setup: str
    clients_per_server: int
    warmup_ms: float
    window_ms: float  # ISSUE.md's size, before WINDOW_FACTOR / QUICK_FACTOR
    single_op: Optional[OpType] = None  # None = Spotify mix
    listing_cache: bool = False
    # Error classes the generator itself provokes; any other class in a
    # fault-free run is an unexplained failure.
    race_errors: tuple = ()
    # After the window: stop, drain, and stat acked paths from a fresh client.
    verify_mkdirs: bool = False

    def window(self, quick: bool) -> float:
        return self.window_ms * (QUICK_FACTOR if quick else WINDOW_FACTOR)

    def warmup(self, quick: bool) -> float:
        return self.warmup_ms * (QUICK_FACTOR if quick else 1.0)

    def cache_config(self):
        return ListingCacheConfig() if self.listing_cache else None


# The Spotify generator records a created path when the create is *issued*,
# so another client can draw it for rename/delete before the create commits;
# the file system's FileNotFound reply to that race is correct.
_SPOTIFY_RACES = ("FileNotFoundFsError",)

WORKLOADS = {
    w.name: w
    for w in (
        # Paper Fig. 5 regime: NN handler CPU saturated, ~95% reads.
        Workload("spotify_sat", "HopsFS-CL (3,3)", clients_per_server=160,
                 warmup_ms=20.0, window_ms=100.0, race_errors=_SPOTIFY_RACES),
        # Below saturation, every op a synchronous 2PC commit chain.
        Workload("mkdir_chain", "HopsFS-CL (3,3)", clients_per_server=24,
                 warmup_ms=20.0, window_ms=150.0, single_op=OpType.MKDIR,
                 verify_mkdirs=True),
        # spotify_sat served from NN memory: NDB bypassed for ~95% of ops.
        Workload("spotify_cached", "HopsFS-CL (3,3)", clients_per_server=160,
                 warmup_ms=20.0, window_ms=40.0, listing_cache=True,
                 race_errors=_SPOTIFY_RACES),
        # The paper's baseline; bypasses ndb and hopsfs entirely.
        Workload("cephfs_sat", "CephFS", clients_per_server=8,
                 warmup_ms=100.0, window_ms=2000.0, race_errors=_SPOTIFY_RACES),
    )
}
