"""Hardware configuration dataclasses.

Every structural and timing parameter of the simulated machine lives here, in
immutable dataclasses, so that experiments are fully described by a
:class:`SystemConfig` value plus a workload specification.  The defaults of
each dataclass match the target multicore of the paper (Section 4.1):

* 16 out-of-order cores, 2-wide issue, 8-stage pipeline (9 with Reunion's
  Check stage), 128-entry instruction window, 32+32 entry load/store queue,
  3 GHz;
* split 16 KB 2-way write-through L1 I/D caches, 512 KB 4-way private L2,
  8 MB 16-way shared L3 that is exclusive with the L2s, 55-cycle L3 load-to-use
  latency;
* MOSI directory coherence over a point-to-point interconnect with an average
  10-cycle hop latency, 350-cycle main memory, 40 GB/s off-chip bandwidth;
* a dedicated fingerprint network with a 10-cycle latency;
* a 128-entry PAB holding 64-byte blocks of PAT entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from repro.errors import ConfigurationError


def _require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` when ``condition`` is false."""
    if not condition:
        raise ConfigurationError(message)


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


class PabLookupMode(str, Enum):
    """Whether the PAB is consulted in parallel with, or serially before, the L2."""

    PARALLEL = "parallel"
    SERIAL = "serial"


class ConsistencyModel(str, Enum):
    """Memory consistency model used by the cores.

    The paper's configuration uses sequential consistency (SC), which makes
    stores occupy instruction-window entries until they reach the cache.  The
    original Reunion proposal used TSO with a store buffer; the ablation
    benchmark compares both.
    """

    SEQUENTIAL = "sc"
    TSO = "tso"


@dataclass(frozen=True)
class CoreConfig:
    """Parameters of one out-of-order core."""

    pipeline_stages: int = 8
    issue_width: int = 2
    window_entries: int = 128
    lsq_load_entries: int = 32
    lsq_store_entries: int = 32
    frequency_ghz: float = 3.0
    consistency: ConsistencyModel = ConsistencyModel.SEQUENTIAL
    #: Extra cycles a serialising instruction spends draining the pipeline
    #: before it may execute (on top of waiting for the window to empty).
    serializing_drain_cycles: int = 10
    #: Branch misprediction penalty in cycles (front-end refill).
    branch_penalty_cycles: int = 8
    #: Fraction of branches that mispredict in the synthetic streams.
    branch_mispredict_rate: float = 0.04

    def validate(self) -> None:
        """Check internal consistency of the core parameters."""
        _require(self.pipeline_stages >= 4, "pipeline needs at least 4 stages")
        _require(self.issue_width >= 1, "issue width must be at least 1")
        _require(self.window_entries >= 8, "instruction window too small")
        _require(self.lsq_load_entries >= 1, "load queue too small")
        _require(self.lsq_store_entries >= 1, "store queue too small")
        _require(self.frequency_ghz > 0, "core frequency must be positive")
        _require(
            0.0 <= self.branch_mispredict_rate <= 1.0,
            "branch mispredict rate must be a probability",
        )


@dataclass(frozen=True)
class CacheConfig:
    """Parameters of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    line_bytes: int = 64
    hit_latency: int = 2
    write_through: bool = False
    shared: bool = False
    exclusive_of_upper: bool = False

    @property
    def num_lines(self) -> int:
        """Total number of lines in the cache."""
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Number of sets (lines divided by associativity)."""
        return self.num_lines // self.associativity

    def validate(self) -> None:
        """Check the cache geometry is realisable."""
        _require(self.size_bytes > 0, f"{self.name}: size must be positive")
        _require(self.associativity >= 1, f"{self.name}: associativity must be >= 1")
        _require(_is_power_of_two(self.line_bytes), f"{self.name}: line size must be a power of two")
        _require(
            self.size_bytes % self.line_bytes == 0,
            f"{self.name}: size must be a multiple of the line size",
        )
        _require(
            self.num_lines % self.associativity == 0,
            f"{self.name}: line count must be divisible by associativity",
        )
        _require(self.hit_latency >= 1, f"{self.name}: hit latency must be >= 1 cycle")


@dataclass(frozen=True)
class MemoryConfig:
    """Main-memory latency and bandwidth."""

    load_to_use_latency: int = 350
    bandwidth_gb_per_s: float = 40.0
    #: Bytes transferred per cycle at the configured bandwidth and 3 GHz.
    #: Derived in :meth:`bytes_per_cycle`, kept explicit for clarity.
    frequency_ghz: float = 3.0

    def bytes_per_cycle(self) -> float:
        """Off-chip bandwidth expressed in bytes per core cycle."""
        return (self.bandwidth_gb_per_s * 1e9) / (self.frequency_ghz * 1e9)

    def validate(self) -> None:
        """Check latency/bandwidth are positive."""
        _require(self.load_to_use_latency > 0, "memory latency must be positive")
        _require(self.bandwidth_gb_per_s > 0, "memory bandwidth must be positive")


@dataclass(frozen=True)
class InterconnectConfig:
    """On-chip point-to-point interconnect and fingerprint network."""

    hop_latency: int = 10
    #: Hops of a cache-to-cache transfer (requester -> directory -> owner ->
    #: requester); the paper notes these cost more than a 2-hop L3 hit.
    #: ``Interconnect.cache_to_cache_latency`` turns them into cycles.
    cache_to_cache_hops: int = 3
    fingerprint_latency: int = 10
    link_bytes_per_cycle: float = 64.0

    def validate(self) -> None:
        """Check interconnect latencies are positive."""
        _require(self.hop_latency > 0, "hop latency must be positive")
        _require(self.cache_to_cache_hops >= 2, "C2C transfers need at least 2 hops")
        _require(self.fingerprint_latency >= 0, "fingerprint latency cannot be negative")


@dataclass(frozen=True)
class ReunionConfig:
    """Parameters of the Reunion loose lock-stepping DMR substrate."""

    #: Number of instructions summarised by one fingerprint.
    fingerprint_interval: int = 16
    #: Additional in-order pipeline stage added by Reunion (Check).
    check_stage_cycles: int = 1
    #: Penalty (cycles) to recover from a fingerprint mismatch: squash both
    #: cores, re-execute from the last verified point via the serial request
    #: path, as in the original proposal.
    recovery_penalty_cycles: int = 200
    #: Extra cycles a serialising instruction pays for the pre-execution
    #: validation round trip between vocal and mute.
    serializing_check_cycles: int = 20

    def validate(self) -> None:
        """Check DMR parameters are sensible."""
        _require(self.fingerprint_interval >= 1, "fingerprint interval must be >= 1")
        _require(self.check_stage_cycles >= 0, "check stage cycles cannot be negative")
        _require(self.recovery_penalty_cycles >= 0, "recovery penalty cannot be negative")


@dataclass(frozen=True)
class PabConfig:
    """Protection Assistance Buffer geometry and lookup policy."""

    entries: int = 128
    entry_bytes: int = 64
    lookup_mode: PabLookupMode = PabLookupMode.PARALLEL
    serial_lookup_latency: int = 2
    page_bytes: int = 8 * 1024

    @property
    def pages_per_entry(self) -> int:
        """Number of 8 KB pages whose PAT bits fit in one PAB entry."""
        return self.entry_bytes * 8

    @property
    def mapped_bytes(self) -> int:
        """Bytes of physical memory mapped by a full PAB."""
        return self.entries * self.pages_per_entry * self.page_bytes

    @property
    def storage_bytes(self) -> int:
        """Approximate storage of the PAB (data plus ~2 bytes of tag per entry)."""
        return self.entries * (self.entry_bytes + 2)

    def validate(self) -> None:
        """Check the PAB geometry."""
        _require(self.entries >= 1, "PAB needs at least one entry")
        _require(_is_power_of_two(self.entries), "PAB entry count must be a power of two")
        _require(self.entry_bytes >= 1, "PAB entry must hold at least one byte")
        _require(self.serial_lookup_latency >= 0, "PAB latency cannot be negative")
        _require(_is_power_of_two(self.page_bytes), "PAT page size must be a power of two")


@dataclass(frozen=True)
class VirtualizationConfig:
    """Hardware virtualisation layer parameters (Section 3.5 of the paper)."""

    #: Gang-scheduling timeslice in cycles (the paper uses 1 ms = 3 M cycles;
    #: experiments scale this down, keeping the ratio to the run length).
    timeslice_cycles: int = 3_000_000
    #: Size of one VCPU's architected state (about 2.3 KB for SPARC).
    vcpu_state_bytes: int = 2_355
    #: Latency of the core-local state machine steps that do not touch memory
    #: (synchronising the pair, swapping mode bits).
    sync_cycles: int = 30
    #: Whether the scheduler may expose more VCPUs than core pairs (overcommit).
    allow_overcommit: bool = True

    def validate(self) -> None:
        """Check virtualisation parameters."""
        _require(self.timeslice_cycles > 0, "timeslice must be positive")
        _require(self.vcpu_state_bytes > 0, "VCPU state size must be positive")
        _require(self.sync_cycles >= 0, "sync cycles cannot be negative")


@dataclass(frozen=True)
class TlbConfig:
    """TLB geometry; the paper models a hardware-filled TLB."""

    entries: int = 128
    fill_latency: int = 30
    hardware_filled: bool = True

    def validate(self) -> None:
        """Check the TLB geometry."""
        _require(self.entries >= 1, "TLB needs at least one entry")
        _require(self.fill_latency >= 0, "TLB fill latency cannot be negative")


@dataclass(frozen=True)
class SystemConfig:
    """The full machine description used by every experiment."""

    num_cores: int = 16
    core: CoreConfig = field(default_factory=CoreConfig)
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1I", size_bytes=16 * 1024, associativity=2, hit_latency=1,
            write_through=True,
        )
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L1D", size_bytes=16 * 1024, associativity=2, hit_latency=1,
            write_through=True,
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L2", size_bytes=512 * 1024, associativity=4, hit_latency=12,
        )
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L3", size_bytes=8 * 1024 * 1024, associativity=16, hit_latency=55,
            shared=True, exclusive_of_upper=True,
        )
    )
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    reunion: ReunionConfig = field(default_factory=ReunionConfig)
    pab: PabConfig = field(default_factory=PabConfig)
    tlb: TlbConfig = field(default_factory=TlbConfig)
    virtualization: VirtualizationConfig = field(default_factory=VirtualizationConfig)

    @property
    def max_dmr_pairs(self) -> int:
        """Maximum number of simultaneously executing DMR pairs."""
        return self.num_cores // 2

    def validate(self) -> "SystemConfig":
        """Validate every sub-configuration and cross-cutting constraints.

        Returns ``self`` so the call can be chained at construction sites.
        """
        _require(self.num_cores >= 2, "mixed-mode needs at least two cores")
        _require(self.num_cores % 2 == 0, "DMR pairing needs an even core count")
        self.core.validate()
        for cache in (self.l1i, self.l1d, self.l2, self.l3):
            cache.validate()
        _require(
            self.l1d.line_bytes == self.l2.line_bytes == self.l3.line_bytes,
            "all cache levels must share one line size",
        )
        _require(not self.l1d.shared, "L1 caches are private per core")
        _require(not self.l2.shared, "L2 caches are private per core")
        _require(self.l3.shared, "the L3 cache is shared")
        self.memory.validate()
        self.interconnect.validate()
        self.reunion.validate()
        self.pab.validate()
        self.tlb.validate()
        self.virtualization.validate()
        return self

    def with_pab_lookup(self, mode: PabLookupMode) -> "SystemConfig":
        """Return a copy of this configuration with a different PAB lookup mode."""
        return replace(self, pab=replace(self.pab, lookup_mode=mode))

    def with_window_entries(self, entries: int) -> "SystemConfig":
        """Return a copy with a different instruction-window size (ablation)."""
        return replace(self, core=replace(self.core, window_entries=entries))

    def with_consistency(self, model: ConsistencyModel) -> "SystemConfig":
        """Return a copy with a different memory consistency model (ablation)."""
        return replace(self, core=replace(self.core, consistency=model))
