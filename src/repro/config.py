"""Simulation configuration.

The defaults mirror the paper's Table III (an NVIDIA GTX 480 / Fermi-class
part): 16 SMs with 48 warps each, 32 KB 4-way L1s, a 1 MB 8-bank L2, a
crossbar per direction moving one 32-bit flit per cycle per port, and GDDR
with a 460-cycle minimum latency. ``GPUConfig.small()`` provides a scaled-
down configuration for unit tests, where simulating 768 warps per run would
be wasteful.

Consistency/protocol selection lives here too: a run is fully described by
``(GPUConfig, protocol name, workload)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigError

#: Protocols implemented by the simulator, with the consistency model each
#: enforces at the core. ``sc`` means the core issues at most one global
#: memory op per warp (the paper's "naive SC"); ``wo`` means weak ordering
#: with fences.
PROTOCOLS: Dict[str, str] = {
    "MESI": "sc",
    "TCS": "sc",
    "TCW": "wo",
    "RCC": "sc",
    "RCC-WO": "wo",
    "SC-IDEAL": "sc",
}


@dataclass
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    assoc: int
    block_bytes: int = 128
    mshr_entries: int = 128
    hit_latency: int = 1

    @property
    def n_sets(self) -> int:
        n_blocks = self.size_bytes // self.block_bytes
        if n_blocks % self.assoc:
            raise ConfigError(
                f"cache of {n_blocks} blocks not divisible by assoc {self.assoc}"
            )
        return n_blocks // self.assoc

    def validate(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigError("cache size must be positive")
        if self.block_bytes & (self.block_bytes - 1):
            raise ConfigError("block size must be a power of two")
        _ = self.n_sets  # raises on bad geometry


@dataclass
class NoCConfig:
    """Crossbar interconnect parameters (one xbar per direction)."""

    flit_bytes: int = 4
    link_latency: int = 8            # fixed traversal pipeline depth
    flits_per_cycle_per_port: int = 1


@dataclass
class DRAMConfig:
    """Banked GDDR model with row-buffer timing (simplified FR-FCFS)."""

    banks_per_partition: int = 8
    row_bytes: int = 2048
    row_hit_cycles: int = 20         # ~tCL + burst
    row_miss_cycles: int = 64        # precharge + activate + CAS
    min_latency: int = 460           # paper Table III minimum latency


@dataclass
class TimestampConfig:
    """Logical-timestamp parameters for RCC (paper §III-D/E)."""

    bits: int = 32
    lease_min: int = 8
    lease_max: int = 2048
    lease_default: int = 64          # fixed lease when the predictor is off
    predictor_enabled: bool = True
    renew_enabled: bool = True
    #: Livelock avoidance: bump each core's logical now by 1 every N cycles
    #: (0 disables the tick).
    livelock_tick_cycles: int = 10_000

    @property
    def max_timestamp(self) -> int:
        return (1 << self.bits) - 1

    def validate(self) -> None:
        if not (self.lease_min <= self.lease_default <= self.lease_max):
            raise ConfigError(
                "lease bounds must satisfy min <= default <= max: "
                f"{self.lease_min}/{self.lease_default}/{self.lease_max}"
            )
        if self.bits < 8:
            raise ConfigError("timestamps narrower than 8 bits are untested")
        if self.lease_max >= self.max_timestamp:
            raise ConfigError("lease_max must be far below timestamp rollover")


@dataclass
class TCConfig:
    """Physical-timestamp parameters for TC-strong / TC-weak.

    TC predicts per-block lifetimes (Singh et al.): blocks written often
    get short leases (so TCS stores barely wait and TCW fences see small
    GWCTs), read-mostly blocks get long ones. A block starts at
    ``lease_default``; a write sets its prediction to ``lease_min``, and a
    grant to a copy that expired without being written since multiplies
    it by 4, capped at ``lease_max``.
    """

    lease_min: int = 512
    lease_default: int = 2048
    lease_max: int = 16384


@dataclass
class GPUConfig:
    """Full machine description (paper Table III by default)."""

    n_cores: int = 16
    warps_per_core: int = 48
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * 1024, assoc=4)
    )
    l2_banks: int = 8
    l2_per_bank: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=128 * 1024, assoc=8, hit_latency=40
        )
    )
    #: Minimum L1-to-L2-and-back latency (paper: 340-cycle minimum to L2).
    l2_min_round_trip: int = 340
    noc: NoCConfig = field(default_factory=NoCConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    ts: TimestampConfig = field(default_factory=TimestampConfig)
    tc: TCConfig = field(default_factory=TCConfig)
    #: Max outstanding global memory ops per warp under weak ordering.
    wo_max_outstanding: int = 8
    max_cycles: int = 200_000_000

    def validate(self) -> None:
        if self.n_cores <= 0 or self.warps_per_core <= 0:
            raise ConfigError("need at least one core and one warp")
        self.l1.validate()
        self.l2_per_bank.validate()
        self.ts.validate()
        if self.l1.block_bytes != self.l2_per_bank.block_bytes:
            raise ConfigError("L1/L2 block sizes must match")
        if self.wo_max_outstanding < 1:
            raise ConfigError("wo_max_outstanding must be >= 1")

    # ------------------------------------------------------------------
    # Canned configurations
    # ------------------------------------------------------------------
    @staticmethod
    def paper() -> "GPUConfig":
        """The paper's Table III configuration."""
        return GPUConfig()

    @staticmethod
    def small() -> "GPUConfig":
        """A scaled-down machine for unit tests: 4 SMs x 4 warps, small
        caches so that evictions/expirations happen quickly."""
        return GPUConfig(
            n_cores=4,
            warps_per_core=4,
            l1=CacheConfig(size_bytes=4 * 1024, assoc=4, mshr_entries=16),
            l2_banks=2,
            l2_per_bank=CacheConfig(
                size_bytes=16 * 1024, assoc=8, hit_latency=10, mshr_entries=16
            ),
            l2_min_round_trip=40,
            dram=DRAMConfig(min_latency=60, row_hit_cycles=8, row_miss_cycles=20),
            noc=NoCConfig(link_latency=4),
            ts=TimestampConfig(livelock_tick_cycles=2_000),
            max_cycles=20_000_000,
        )

    @staticmethod
    def bench() -> "GPUConfig":
        """Mid-sized machine used to regenerate the figures (``rcc-repro``)
        and by the timing benchmark: a smaller core/bank count than
        Table III (so full protocol sweeps finish in seconds) but the
        paper's *memory latencies* — the quantities every coherence
        trade-off is priced in — are kept at their Table III values."""
        cfg = GPUConfig(
            n_cores=8,
            warps_per_core=24,
            l1=CacheConfig(size_bytes=16 * 1024, assoc=4, mshr_entries=64),
            l2_banks=4,
            l2_per_bank=CacheConfig(
                size_bytes=64 * 1024, assoc=8, hit_latency=40, mshr_entries=64
            ),
            l2_min_round_trip=340,
            dram=DRAMConfig(min_latency=460),
            noc=NoCConfig(link_latency=8),
        )
        return cfg

    def replace(self, **kwargs) -> "GPUConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)


#: Canned machine configurations addressable by name (CLI flags, corpus
#: cell files). Names, not serialized configs, keep reproducer files
#: readable and robust to config-schema evolution.
NAMED_CONFIGS = {
    "small": GPUConfig.small,
    "bench": GPUConfig.bench,
    "paper": GPUConfig.paper,
}


def named_config(name: str) -> GPUConfig:
    """Instantiate a canned configuration by name."""
    try:
        return NAMED_CONFIGS[name.lower()]()
    except KeyError:
        raise ConfigError(
            f"unknown config {name!r}; choose from {sorted(NAMED_CONFIGS)}"
        ) from None


def consistency_of(protocol: str) -> str:
    """Consistency model ('sc' or 'wo') enforced with ``protocol``."""
    try:
        return PROTOCOLS[protocol]
    except KeyError:
        raise ConfigError(
            f"unknown protocol {protocol!r}; choose from {sorted(PROTOCOLS)}"
        ) from None
