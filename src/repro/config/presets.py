"""Ready-made system configurations.

``paper_system_config`` reproduces the target multicore of Section 4.1 of the
paper.  ``small_system_config`` is a deliberately small machine (4 cores,
small caches, short timeslices) used by the unit tests and quick examples so
that they run in well under a second while exercising exactly the same code
paths.
"""

from __future__ import annotations

from repro.config.system import (
    CacheConfig,
    CoreConfig,
    InterconnectConfig,
    MemoryConfig,
    PabConfig,
    ReunionConfig,
    SystemConfig,
    TlbConfig,
    VirtualizationConfig,
)


def paper_system_config(timeslice_cycles: int = 30_000) -> SystemConfig:
    """The paper's 16-core target machine.

    Parameters
    ----------
    timeslice_cycles:
        Gang-scheduling timeslice.  The paper uses 1 ms (3 million cycles at
        3 GHz) with 100 M-cycle simulations; the reproduction scales both down
        by default (the ratio of timeslice to run length is what matters for
        the consolidated-server results).  Pass ``3_000_000`` to use the
        paper's literal value.
    """
    config = SystemConfig(
        num_cores=16,
        core=CoreConfig(
            issue_width=2,
            window_entries=128,
            lsq_load_entries=32,
            lsq_store_entries=32,
        ),
        l1i=CacheConfig(
            name="L1I", size_bytes=16 * 1024, associativity=2, hit_latency=1,
        ),
        l1d=CacheConfig(
            name="L1D", size_bytes=16 * 1024, associativity=2, hit_latency=1,
        ),
        l2=CacheConfig(name="L2", size_bytes=512 * 1024, associativity=4, hit_latency=12),
        l3=CacheConfig(
            name="L3", size_bytes=8 * 1024 * 1024, associativity=16, hit_latency=55,
        ),
        memory=MemoryConfig(load_to_use_latency=350, bandwidth_gb_per_s=40.0),
        interconnect=InterconnectConfig(hop_latency=10, fingerprint_latency=10),
        reunion=ReunionConfig(),
        pab=PabConfig(entries=128),
        tlb=TlbConfig(entries=128, fill_latency=30),
        virtualization=VirtualizationConfig(timeslice_cycles=timeslice_cycles),
    )
    return config.validate()


def evaluation_system_config(
    capacity_scale: int = 8, timeslice_cycles: int = 25_000
) -> SystemConfig:
    """The paper's machine with cache capacities scaled down for fast runs.

    A pure-Python simulation cannot run the paper's 100 M-cycle windows, so
    the benchmark harness scales *capacities* (L1/L2/L3 sizes, TLB entries)
    and workload footprints down by the same factor while keeping every
    latency, width and structural parameter of the paper configuration.
    Because capacities and footprints shrink together, hit/miss behaviour --
    and therefore the relative results the paper reports -- is preserved
    while steady state is reached within tens of thousands of cycles.

    ``capacity_scale=1`` returns the full paper configuration.
    """
    if capacity_scale < 1:
        raise ValueError("capacity_scale must be at least 1")
    paper = paper_system_config(timeslice_cycles=timeslice_cycles)
    if capacity_scale == 1:
        return paper
    scaled = SystemConfig(
        num_cores=paper.num_cores,
        core=paper.core,
        l1i=CacheConfig(
            name="L1I",
            size_bytes=max(1024, paper.l1i.size_bytes // capacity_scale),
            associativity=paper.l1i.associativity,
            hit_latency=paper.l1i.hit_latency,
        ),
        l1d=CacheConfig(
            name="L1D",
            size_bytes=max(1024, paper.l1d.size_bytes // capacity_scale),
            associativity=paper.l1d.associativity,
            hit_latency=paper.l1d.hit_latency,
        ),
        l2=CacheConfig(
            name="L2",
            size_bytes=max(8 * 1024, paper.l2.size_bytes // capacity_scale),
            associativity=paper.l2.associativity,
            hit_latency=paper.l2.hit_latency,
        ),
        l3=CacheConfig(
            name="L3",
            size_bytes=max(64 * 1024, paper.l3.size_bytes // capacity_scale),
            associativity=paper.l3.associativity,
            hit_latency=paper.l3.hit_latency,
        ),
        memory=paper.memory,
        interconnect=paper.interconnect,
        reunion=paper.reunion,
        pab=paper.pab,
        tlb=TlbConfig(
            entries=max(16, paper.tlb.entries // 2),
            fill_latency=paper.tlb.fill_latency,
        ),
        virtualization=VirtualizationConfig(timeslice_cycles=timeslice_cycles),
    )
    return scaled.validate()


def small_system_config(timeslice_cycles: int = 4_000) -> SystemConfig:
    """A 4-core machine with small caches for fast unit tests.

    The relative structure (write-through L1s, private L2, shared exclusive
    L3, DMR pairing, PAB) is identical to the paper configuration; only sizes
    and latencies are reduced so that tests finish quickly.
    """
    config = SystemConfig(
        num_cores=4,
        core=CoreConfig(
            issue_width=2,
            window_entries=32,
            lsq_load_entries=8,
            lsq_store_entries=8,
        ),
        l1i=CacheConfig(
            name="L1I", size_bytes=2 * 1024, associativity=2, hit_latency=1,
        ),
        l1d=CacheConfig(
            name="L1D", size_bytes=2 * 1024, associativity=2, hit_latency=1,
        ),
        l2=CacheConfig(name="L2", size_bytes=16 * 1024, associativity=4, hit_latency=8),
        l3=CacheConfig(
            name="L3", size_bytes=128 * 1024, associativity=8, hit_latency=30,
        ),
        memory=MemoryConfig(load_to_use_latency=200, bandwidth_gb_per_s=40.0),
        interconnect=InterconnectConfig(hop_latency=8, fingerprint_latency=8),
        reunion=ReunionConfig(fingerprint_interval=8),
        pab=PabConfig(entries=16),
        tlb=TlbConfig(entries=32, fill_latency=20),
        virtualization=VirtualizationConfig(
            timeslice_cycles=timeslice_cycles, vcpu_state_bytes=2_355
        ),
    )
    return config.validate()
