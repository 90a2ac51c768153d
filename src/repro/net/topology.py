"""Region / availability-zone topology and the Table I latency matrix.

The paper measured round-trip latencies between VMs in the three AZs of
GCP's ``us-west1`` region (Table I).  We use those numbers directly as the
one-way message delay of the simulated network: what drives every result in
the paper is the *ratio* between intra-AZ and inter-AZ delay, which this
preserves exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..errors import ConfigError
from ..types import ANY_AZ, AzId, NodeAddress

__all__ = [
    "TABLE1_LATENCY_MS",
    "US_WEST1_AZS",
    "Host",
    "Topology",
    "build_us_west1",
]

US_WEST1_AZS = ("us-west1-a", "us-west1-b", "us-west1-c")

# Table I of the paper: measured latencies (ms) between two VMs in GCP
# us-west1, by AZ pair.  Symmetric by construction of the measurement.
TABLE1_LATENCY_MS: dict[tuple[str, str], float] = {
    ("us-west1-a", "us-west1-a"): 0.247,
    ("us-west1-a", "us-west1-b"): 0.360,
    ("us-west1-a", "us-west1-c"): 0.372,
    ("us-west1-b", "us-west1-b"): 0.251,
    ("us-west1-b", "us-west1-c"): 0.399,
    ("us-west1-c", "us-west1-c"): 0.249,
}

# Two colocated processes on the same VM talk over loopback.
SAME_HOST_LATENCY_MS = 0.02


@dataclass
class Host:
    """A simulated machine: one process of interest per host.

    ``cores`` mirrors the paper's 32-vCPU VMs; components carve their thread
    pools out of this budget.
    """

    address: NodeAddress
    az: AzId
    cores: int = 32
    colocated_with: Optional[NodeAddress] = None


@dataclass
class Topology:
    """Set of AZs in one region plus the hosts placed in them."""

    region: str = "us-west1"
    az_names: tuple[str, ...] = US_WEST1_AZS
    latency_ms: dict[tuple[str, str], float] = field(
        default_factory=lambda: dict(TABLE1_LATENCY_MS)
    )
    hosts: dict[NodeAddress, Host] = field(default_factory=dict)
    # Memo caches for the per-message lookups (latency/az_of/same_vm/
    # proximity_rank/nearest).  Placement is immutable after setup except through
    # add_host(), which invalidates them.  Pure caches: never iterated,
    # so they cannot affect determinism.
    _az_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _latency_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _same_vm_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _rank_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _nearest_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.az_names:
            raise ConfigError("topology needs at least one AZ")

    # AZ ids are 1-based; 0 (ANY_AZ) means "unset".
    @property
    def num_azs(self) -> int:
        return len(self.az_names)

    def az_name(self, az: AzId) -> str:
        if not 1 <= az <= self.num_azs:
            raise ConfigError(f"AZ id {az} out of range 1..{self.num_azs}")
        return self.az_names[az - 1]

    def add_host(
        self,
        address: NodeAddress,
        az: AzId,
        cores: int = 32,
        colocated_with: Optional[NodeAddress] = None,
    ) -> Host:
        """Place a host in ``az``; optionally colocate it on another host's VM."""
        if address in self.hosts:
            raise ConfigError(f"host {address} already registered")
        if az == ANY_AZ or az > self.num_azs:
            raise ConfigError(f"host {address} must be placed in an AZ 1..{self.num_azs}")
        if colocated_with is not None and colocated_with not in self.hosts:
            raise ConfigError(f"colocation target {colocated_with} unknown")
        host = Host(address=address, az=az, cores=cores, colocated_with=colocated_with)
        self.hosts[address] = host
        self._az_cache.clear()
        self._latency_cache.clear()
        self._same_vm_cache.clear()
        self._rank_cache.clear()
        self._nearest_cache.clear()
        return host

    def host(self, address: NodeAddress) -> Host:
        try:
            return self.hosts[address]
        except KeyError:
            raise ConfigError(f"unknown host {address}") from None

    def az_of(self, address: NodeAddress) -> AzId:
        try:
            return self._az_cache[address]
        except KeyError:
            az = self.host(address).az
            self._az_cache[address] = az
            return az

    def same_vm(self, a: NodeAddress, b: NodeAddress) -> bool:
        key = (a, b)
        try:
            return self._same_vm_cache[key]
        except KeyError:
            pass
        result = self._same_vm_uncached(a, b)
        self._same_vm_cache[key] = result
        return result

    def _same_vm_uncached(self, a: NodeAddress, b: NodeAddress) -> bool:
        if a == b:
            return True
        ha, hb = self.host(a), self.host(b)
        return ha.colocated_with == b or hb.colocated_with == a or (
            ha.colocated_with is not None and ha.colocated_with == hb.colocated_with
        )

    def az_pair_latency(self, az_a: AzId, az_b: AzId) -> float:
        name_a, name_b = self.az_name(az_a), self.az_name(az_b)
        key = (name_a, name_b) if (name_a, name_b) in self.latency_ms else (name_b, name_a)
        try:
            return self.latency_ms[key]
        except KeyError:
            raise ConfigError(f"no latency entry for AZ pair {name_a}/{name_b}") from None

    def latency(self, src: NodeAddress, dst: NodeAddress) -> float:
        """One-way delay between two hosts, per Table I."""
        key = (src, dst)
        try:
            return self._latency_cache[key]
        except KeyError:
            pass
        if self.same_vm(src, dst):
            value = SAME_HOST_LATENCY_MS
        else:
            value = self.az_pair_latency(self.az_of(src), self.az_of(dst))
        self._latency_cache[key] = value
        return value

    def hosts_in_az(self, az: AzId) -> list[Host]:
        return [h for h in self.hosts.values() if h.az == az]

    def proximity_rank(self, a: NodeAddress, b: NodeAddress) -> int:
        """The paper's proximity score, ascending (Section IV-A4).

        0: same host and same AZ; 1: different hosts, same AZ;
        2: different hosts, different AZs.
        """
        key = (a, b)
        try:
            return self._rank_cache[key]
        except KeyError:
            pass
        if self.same_vm(a, b):
            rank = 0
        elif self.az_of(a) == self.az_of(b):
            rank = 1
        else:
            rank = 2
        self._rank_cache[key] = rank
        return rank

    def nearest(
        self, caller: NodeAddress, candidates: Sequence[NodeAddress]
    ) -> tuple[NodeAddress, ...]:
        """The candidates sharing the best proximity rank to ``caller``.

        In ``candidates`` order, so a caller breaking the tie with its own
        RNG draws exactly as it would over the unmemoized list.
        """
        nodes = tuple(candidates)
        key = (caller, nodes)
        try:
            return self._nearest_cache[key]
        except KeyError:
            pass
        ranks = [self.proximity_rank(caller, node) for node in nodes]
        best_rank = min(ranks)
        best = tuple(node for node, rank in zip(nodes, ranks) if rank == best_rank)
        self._nearest_cache[key] = best
        return best


def build_us_west1(extra_azs: Iterable[str] = ()) -> Topology:
    """The region used throughout the paper's evaluation."""
    names = US_WEST1_AZS + tuple(extra_azs)
    latency = dict(TABLE1_LATENCY_MS)
    for extra in extra_azs:
        # Synthetic AZs (used to host an external arbitrator) get the mean
        # inter-AZ latency to everything else.
        latency[(extra, extra)] = 0.25
        for name in names:
            if name != extra and (extra, name) not in latency and (name, extra) not in latency:
                latency[(extra, name)] = 0.38
    return Topology(region="us-west1", az_names=names, latency_ms=latency)
