"""Workload profiles calibrated to the paper's six benchmarks.

A :class:`WorkloadProfile` captures everything the synthetic generator needs
to emit an instruction stream that *behaves like* one of the paper's
workloads as far as the evaluated mechanisms are concerned:

* the user/OS phase structure drives Table 2 (cycles between mode switches)
  and the single-OS overhead analysis in Section 5.3;
* the serialising-instruction densities drive a large part of Reunion's IPC
  loss (Section 5.1, "Serializing Instructions");
* the working-set and sharing parameters drive shared-L3 contention (the
  No DMR vs. No DMR 2X gap) and cache-to-cache transfer behaviour (Section
  5.1, "Cache-to-Cache Transfers");
* the instruction mixes drive baseline IPC and memory-system pressure.

The calibration targets are recorded next to each profile.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.errors import WorkloadError
from repro.isa.instructions import PrivilegeLevel


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical description of one workload."""

    name: str
    description: str

    # Instruction mix in user code (fractions of dynamic instructions).
    user_load_fraction: float
    user_store_fraction: float
    user_branch_fraction: float

    # Instruction mix in OS/privileged code.
    os_load_fraction: float
    os_store_fraction: float
    os_branch_fraction: float

    # Serialising-instruction density (per 1000 dynamic instructions).
    user_si_per_kilo: float
    os_si_per_kilo: float

    # Phase structure: mean dynamic instructions per user phase (between OS
    # entries) and per OS visit.  Together with the achieved IPC these
    # reproduce the paper's Table 2 (cycles before switching modes).
    mean_user_phase_instructions: int
    mean_os_phase_instructions: int

    # Data working sets (bytes).
    user_hot_bytes: int
    user_footprint_bytes: int
    kernel_hot_bytes: int
    kernel_footprint_bytes: int
    hot_access_fraction: float

    # Probability that a user-phase (resp. OS-phase) memory access touches
    # data shared with other VCPUs of the same VM.
    shared_access_fraction: float
    os_shared_access_fraction: float

    # Instruction-cache misses per 1000 instructions (front-end stalls).
    user_icache_mpki: float
    os_icache_mpki: float

    def validate(self) -> "WorkloadProfile":
        """Check all fractions and sizes are sensible; return ``self``."""
        for label, value in (
            ("user_load_fraction", self.user_load_fraction),
            ("user_store_fraction", self.user_store_fraction),
            ("user_branch_fraction", self.user_branch_fraction),
            ("os_load_fraction", self.os_load_fraction),
            ("os_store_fraction", self.os_store_fraction),
            ("os_branch_fraction", self.os_branch_fraction),
            ("hot_access_fraction", self.hot_access_fraction),
            ("shared_access_fraction", self.shared_access_fraction),
            ("os_shared_access_fraction", self.os_shared_access_fraction),
        ):
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{self.name}: {label} must be in [0, 1], got {value}")
        if self.user_load_fraction + self.user_store_fraction + self.user_branch_fraction >= 1.0:
            raise WorkloadError(f"{self.name}: user instruction mix exceeds 1.0")
        if self.os_load_fraction + self.os_store_fraction + self.os_branch_fraction >= 1.0:
            raise WorkloadError(f"{self.name}: OS instruction mix exceeds 1.0")
        if self.mean_user_phase_instructions < 1 or self.mean_os_phase_instructions < 1:
            raise WorkloadError(f"{self.name}: phase lengths must be at least 1 instruction")
        if self.user_hot_bytes > self.user_footprint_bytes:
            raise WorkloadError(f"{self.name}: hot set larger than the footprint")
        if self.kernel_hot_bytes > self.kernel_footprint_bytes:
            raise WorkloadError(f"{self.name}: kernel hot set larger than its footprint")
        if self.user_si_per_kilo < 0 or self.os_si_per_kilo < 0:
            raise WorkloadError(f"{self.name}: serialising densities cannot be negative")
        return self

    def mix_for(self, privilege: PrivilegeLevel) -> Tuple[float, float, float]:
        """Return ``(load, store, branch)`` fractions for the given privilege."""
        if privilege is PrivilegeLevel.USER:
            return (
                self.user_load_fraction,
                self.user_store_fraction,
                self.user_branch_fraction,
            )
        return (self.os_load_fraction, self.os_store_fraction, self.os_branch_fraction)

    def si_per_kilo_for(self, privilege: PrivilegeLevel) -> float:
        """Serialising-instruction density for the given privilege level."""
        if privilege is PrivilegeLevel.USER:
            return self.user_si_per_kilo
        return self.os_si_per_kilo

    def icache_mpki_for(self, privilege: PrivilegeLevel) -> float:
        """Instruction-cache miss density for the given privilege level."""
        if privilege is PrivilegeLevel.USER:
            return self.user_icache_mpki
        return self.os_icache_mpki

    @property
    def os_intensity(self) -> float:
        """Fraction of dynamic instructions spent in the OS."""
        total = self.mean_user_phase_instructions + self.mean_os_phase_instructions
        return self.mean_os_phase_instructions / total

    def scaled(
        self, phase_scale: float = 1.0, footprint_scale: float = 1.0
    ) -> "WorkloadProfile":
        """Return a copy with scaled phase lengths and/or working sets.

        The experiments scale phases down so that scaled-down simulations
        still alternate between user and OS execution several times per run,
        and scale footprints down for the small test configuration.
        """
        if phase_scale <= 0 or footprint_scale <= 0:
            raise WorkloadError("scale factors must be positive")
        # A mean phase above 2**53 instructions leaves ``1 - 1/mean`` at 1.0,
        # which the geometric phase-length draw cannot sample.
        longest = max(self.mean_user_phase_instructions, self.mean_os_phase_instructions)
        if not longest * phase_scale <= 2**53:
            raise WorkloadError(
                f"{self.name}: phase scale {phase_scale:g} makes a mean phase "
                "longer than 2**53 instructions"
            )
        return replace(
            self,
            mean_user_phase_instructions=max(
                1, int(self.mean_user_phase_instructions * phase_scale)
            ),
            mean_os_phase_instructions=max(
                1, int(self.mean_os_phase_instructions * phase_scale)
            ),
            user_hot_bytes=max(4096, int(self.user_hot_bytes * footprint_scale)),
            user_footprint_bytes=max(8192, int(self.user_footprint_bytes * footprint_scale)),
            kernel_hot_bytes=max(4096, int(self.kernel_hot_bytes * footprint_scale)),
            kernel_footprint_bytes=max(
                8192, int(self.kernel_footprint_bytes * footprint_scale)
            ),
        ).validate()


def _kb(value: float) -> int:
    return int(value * 1024)


#: Apache: static web server driven by Surge.  Highly OS-intensive (Table 2:
#: 59 k user cycles vs 98 k OS cycles per round trip), moderate working set,
#: significant sharing through the network stack.
APACHE = WorkloadProfile(
    name="apache",
    description="Static web server (Surge client, no think time); OS-intensive.",
    user_load_fraction=0.26,
    user_store_fraction=0.11,
    user_branch_fraction=0.19,
    os_load_fraction=0.27,
    os_store_fraction=0.14,
    os_branch_fraction=0.21,
    user_si_per_kilo=0.5,
    os_si_per_kilo=16.0,
    mean_user_phase_instructions=55_000,
    mean_os_phase_instructions=65_000,
    user_hot_bytes=_kb(48),
    user_footprint_bytes=_kb(192),
    kernel_hot_bytes=_kb(64),
    kernel_footprint_bytes=_kb(128),
    hot_access_fraction=0.90,
    shared_access_fraction=0.05,
    os_shared_access_fraction=0.10,
    user_icache_mpki=6.0,
    os_icache_mpki=14.0,
).validate()

#: Zeus: the other static web server; even more OS-intensive than Apache
#: (Table 2: 65 k user cycles vs 220 k OS cycles).
ZEUS = WorkloadProfile(
    name="zeus",
    description="Static web server (Surge client); the most OS-intensive workload.",
    user_load_fraction=0.25,
    user_store_fraction=0.10,
    user_branch_fraction=0.20,
    os_load_fraction=0.28,
    os_store_fraction=0.14,
    os_branch_fraction=0.21,
    user_si_per_kilo=0.5,
    os_si_per_kilo=18.0,
    mean_user_phase_instructions=60_000,
    mean_os_phase_instructions=145_000,
    user_hot_bytes=_kb(40),
    user_footprint_bytes=_kb(160),
    kernel_hot_bytes=_kb(72),
    kernel_footprint_bytes=_kb(144),
    hot_access_fraction=0.90,
    shared_access_fraction=0.05,
    os_shared_access_fraction=0.08,
    user_icache_mpki=6.5,
    os_icache_mpki=15.0,
).validate()

#: OLTP: TPC-C-like workload on IBM DB2 (~800 MB database, 192 user threads).
#: Large data working set, moderate OS activity (218 k user / 52 k OS cycles).
OLTP = WorkloadProfile(
    name="oltp",
    description="TPC-C-like transactions on a commercial database (DB2).",
    user_load_fraction=0.29,
    user_store_fraction=0.13,
    user_branch_fraction=0.17,
    os_load_fraction=0.26,
    os_store_fraction=0.13,
    os_branch_fraction=0.20,
    user_si_per_kilo=0.8,
    os_si_per_kilo=12.0,
    mean_user_phase_instructions=200_000,
    mean_os_phase_instructions=35_000,
    user_hot_bytes=_kb(96),
    user_footprint_bytes=_kb(256),
    kernel_hot_bytes=_kb(56),
    kernel_footprint_bytes=_kb(96),
    hot_access_fraction=0.87,
    shared_access_fraction=0.08,
    os_shared_access_fraction=0.09,
    user_icache_mpki=9.0,
    os_icache_mpki=12.0,
).validate()

#: pgoltp: TPC-C-like queries on PostgreSQL (OSDL dbt2).  Similar to OLTP but
#: slightly less OS activity (210 k user / 35 k OS cycles).
PGOLTP = WorkloadProfile(
    name="pgoltp",
    description="TPC-C-like queries on PostgreSQL (OSDL dbt2 test suite).",
    user_load_fraction=0.28,
    user_store_fraction=0.12,
    user_branch_fraction=0.18,
    os_load_fraction=0.26,
    os_store_fraction=0.13,
    os_branch_fraction=0.20,
    user_si_per_kilo=0.7,
    os_si_per_kilo=11.0,
    mean_user_phase_instructions=195_000,
    mean_os_phase_instructions=24_000,
    user_hot_bytes=_kb(88),
    user_footprint_bytes=_kb(224),
    kernel_hot_bytes=_kb(48),
    kernel_footprint_bytes=_kb(96),
    hot_access_fraction=0.88,
    shared_access_fraction=0.07,
    os_shared_access_fraction=0.08,
    user_icache_mpki=8.0,
    os_icache_mpki=11.0,
).validate()

#: pgbench: TPC-B-like queries on PostgreSQL.  Longest user phases of all the
#: workloads (554 k user / 126 k OS cycles).
PGBENCH = WorkloadProfile(
    name="pgbench",
    description="TPC-B-like queries on PostgreSQL.",
    user_load_fraction=0.28,
    user_store_fraction=0.13,
    user_branch_fraction=0.17,
    os_load_fraction=0.27,
    os_store_fraction=0.13,
    os_branch_fraction=0.20,
    user_si_per_kilo=0.6,
    os_si_per_kilo=11.0,
    mean_user_phase_instructions=520_000,
    mean_os_phase_instructions=85_000,
    user_hot_bytes=_kb(80),
    user_footprint_bytes=_kb(224),
    kernel_hot_bytes=_kb(48),
    kernel_footprint_bytes=_kb(96),
    hot_access_fraction=0.88,
    shared_access_fraction=0.07,
    os_shared_access_fraction=0.08,
    user_icache_mpki=7.0,
    os_icache_mpki=11.0,
).validate()

#: pmake: parallel compile of PostgreSQL.  CPU-bound, small working set, very
#: little sharing (the paper notes pmake has very few cache-to-cache transfers
#: in the baseline), long user phases (312 k user / 47 k OS cycles).
PMAKE = WorkloadProfile(
    name="pmake",
    description="Parallel compile of PostgreSQL (GNU make + Forte C compiler).",
    user_load_fraction=0.24,
    user_store_fraction=0.10,
    user_branch_fraction=0.20,
    os_load_fraction=0.25,
    os_store_fraction=0.13,
    os_branch_fraction=0.20,
    user_si_per_kilo=0.3,
    os_si_per_kilo=10.0,
    mean_user_phase_instructions=330_000,
    mean_os_phase_instructions=32_000,
    user_hot_bytes=_kb(32),
    user_footprint_bytes=_kb(96),
    kernel_hot_bytes=_kb(40),
    kernel_footprint_bytes=_kb(64),
    hot_access_fraction=0.95,
    shared_access_fraction=0.015,
    os_shared_access_fraction=0.03,
    user_icache_mpki=4.0,
    os_icache_mpki=9.0,
).validate()


#: The six workloads of the paper's evaluation, in the order the figures use.
PAPER_WORKLOADS: Dict[str, WorkloadProfile] = {
    "apache": APACHE,
    "oltp": OLTP,
    "pgoltp": PGOLTP,
    "pmake": PMAKE,
    "pgbench": PGBENCH,
    "zeus": ZEUS,
}

#: Workload names in the paper's figure order.
PAPER_WORKLOAD_NAMES: Tuple[str, ...] = tuple(PAPER_WORKLOADS)


def get_profile(name: str) -> WorkloadProfile:
    """Look up one of the paper's workload profiles by name."""
    try:
        return PAPER_WORKLOADS[name.lower()]
    except KeyError as exc:
        known = ", ".join(PAPER_WORKLOAD_NAMES)
        raise WorkloadError(f"unknown workload {name!r}; known workloads: {known}") from exc
