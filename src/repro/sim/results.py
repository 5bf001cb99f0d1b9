"""Simulation result containers and derived metrics.

The paper's work metric is *committed user instructions*; per-thread
performance is the average of each active VCPU's user IPC (user instructions
divided by total cycles), and throughput is the machine-wide sum.  The result
containers compute exactly those quantities, per VM and overall, plus the
bookkeeping the other experiments need (mode transitions, protection events,
cache statistics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.stats import left_sum
from repro.errors import SimulationError
from repro.virt.vcpu import ReliabilityMode


@dataclass
class VcpuResult:
    """Per-VCPU outcome of a simulation."""

    vcpu_id: int
    vm_id: int
    user_instructions: int
    os_instructions: int
    total_instructions: int
    active_cycles: int
    mode_switches: int
    mode_switch_cycles: int

    def user_ipc(self, machine_cycles: int) -> float:
        """User instructions per machine cycle."""
        if machine_cycles <= 0:
            return 0.0
        return self.user_instructions / machine_cycles


@dataclass
class VmResult:
    """Per-guest-VM outcome of a simulation."""

    vm_id: int
    name: str
    workload_name: str
    reliability: ReliabilityMode
    vcpus: List[VcpuResult] = field(default_factory=list)

    @property
    def num_vcpus(self) -> int:
        """Number of VCPUs the VM exposed."""
        return len(self.vcpus)

    @property
    def user_instructions(self) -> int:
        """Total committed user instructions across the VM's VCPUs."""
        return sum(vcpu.user_instructions for vcpu in self.vcpus)

    @property
    def total_instructions(self) -> int:
        """Total committed instructions across the VM's VCPUs."""
        return sum(vcpu.total_instructions for vcpu in self.vcpus)

    def average_user_ipc(self, machine_cycles: int) -> float:
        """Average per-VCPU user IPC (the paper's per-thread metric)."""
        if not self.vcpus or machine_cycles <= 0:
            return 0.0
        return left_sum(v.user_ipc(machine_cycles) for v in self.vcpus) / len(self.vcpus)

    def throughput(self, machine_cycles: int) -> float:
        """Aggregate user instructions per cycle for the VM."""
        if machine_cycles <= 0:
            return 0.0
        return self.user_instructions / machine_cycles


@dataclass
class SimulationResult:
    """Complete outcome of one simulation run."""

    policy_name: str
    total_cycles: int
    warmup_cycles: int
    vm_results: List[VmResult]
    transitions: int = 0
    transition_cycles: int = 0
    enter_dmr_transitions: int = 0
    leave_dmr_transitions: int = 0
    average_enter_dmr_cycles: float = 0.0
    average_leave_dmr_cycles: float = 0.0
    paused_vcpu_quanta: int = 0
    violation_counts: Dict[str, int] = field(default_factory=dict)
    hierarchy_stats: Dict[str, float] = field(default_factory=dict)
    quantum_stats: Dict[str, float] = field(default_factory=dict)
    #: Cycles trimmed off the final warmup quantum so measurement started
    #: exactly at ``warmup_cycles`` (0 when the warmup aligned naturally).
    #: Before the clamp those cycles were silently shifted into warmup and
    #: dropped from the measured window.
    warmup_clamp_cycles: int = 0
    #: Timeline events applied during the run (warmup included -- the event
    #: schedule describes the whole run, not just the measured window).
    timeline_events_applied: int = 0
    #: Timeline events scheduled at or after the end of the run, which
    #: therefore never fired.
    timeline_events_pending: int = 0
    #: Applied events counted per event kind (``core-failed``, ...).
    timeline_stats: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Lookup helpers
    # ------------------------------------------------------------------ #

    def _vm_index(self) -> "tuple[Dict[str, VmResult], Dict[int, VmResult]]":
        """Cached name and id lookup tables over ``vm_results``.

        The metric extractors look VMs up once per metric, so the previous
        linear scans re-walked the VM list for every extracted number; the
        index is built once and rebuilt only if ``vm_results`` changes
        length (the one mutation the builders perform).
        """
        cached = self.__dict__.get("_vm_index_cache")
        if cached is None or cached[0] != len(self.vm_results):
            by_name = {vm.name: vm for vm in self.vm_results}
            by_id = {vm.vm_id: vm for vm in self.vm_results}
            cached = (len(self.vm_results), by_name, by_id)
            self.__dict__["_vm_index_cache"] = cached
        return cached[1], cached[2]

    def vm(self, name: str) -> VmResult:
        """Result of the VM with the given spec name."""
        by_name, _ = self._vm_index()
        try:
            return by_name[name]
        except KeyError:
            raise SimulationError(f"no VM named {name!r} in this result") from None

    def vm_by_id(self, vm_id: int) -> VmResult:
        """Result of the VM with the given id."""
        _, by_id = self._vm_index()
        try:
            return by_id[vm_id]
        except KeyError:
            raise SimulationError(f"no VM with id {vm_id} in this result") from None

    # ------------------------------------------------------------------ #
    # Machine-wide metrics
    # ------------------------------------------------------------------ #

    @property
    def total_user_instructions(self) -> int:
        """Committed user instructions across every VM."""
        return sum(vm.user_instructions for vm in self.vm_results)

    def overall_throughput(self) -> float:
        """Machine-wide user instructions per cycle."""
        if self.total_cycles <= 0:
            return 0.0
        return self.total_user_instructions / self.total_cycles

    def average_user_ipc(self) -> float:
        """Average per-VCPU user IPC across every VCPU of every VM."""
        vcpus = [v for vm in self.vm_results for v in vm.vcpus]
        if not vcpus or self.total_cycles <= 0:
            return 0.0
        return left_sum(v.user_ipc(self.total_cycles) for v in vcpus) / len(vcpus)

    def silent_corruptions(self) -> int:
        """Number of silent corruptions recorded (should be zero for an MMM)."""
        return int(self.violation_counts.get("SILENT_CORRUPTION", 0))

    def to_dict(self) -> Dict[str, object]:
        """A plain-dictionary summary convenient for logging and tests."""
        return {
            "policy": self.policy_name,
            "total_cycles": self.total_cycles,
            "overall_throughput": self.overall_throughput(),
            "average_user_ipc": self.average_user_ipc(),
            "transitions": self.transitions,
            "transition_cycles": self.transition_cycles,
            "warmup_clamp_cycles": self.warmup_clamp_cycles,
            "timeline_events_applied": self.timeline_events_applied,
            "timeline_stats": dict(self.timeline_stats),
            "vms": {
                vm.name: {
                    "user_ipc": vm.average_user_ipc(self.total_cycles),
                    "throughput": vm.throughput(self.total_cycles),
                    "user_instructions": vm.user_instructions,
                    "num_vcpus": vm.num_vcpus,
                }
                for vm in self.vm_results
            },
            "violations": dict(self.violation_counts),
        }


def build_vm_results(machine, total_cycles: int) -> List[VmResult]:
    """Collect per-VM results from a machine's VCPU accumulators."""
    results: List[VmResult] = []
    for vm in machine.vms:
        vm_result = VmResult(
            vm_id=vm.vm_id,
            name=vm.name,
            workload_name=vm.workload_name,
            reliability=vm.reliability,
        )
        for vcpu in vm.vcpus:
            vm_result.vcpus.append(
                VcpuResult(
                    vcpu_id=vcpu.vcpu_id,
                    vm_id=vm.vm_id,
                    user_instructions=vcpu.committed_user_instructions,
                    os_instructions=vcpu.committed_os_instructions,
                    total_instructions=vcpu.committed_instructions,
                    active_cycles=vcpu.active_cycles,
                    mode_switches=vcpu.mode_switches,
                    mode_switch_cycles=vcpu.mode_switch_cycles,
                )
            )
        results.append(vm_result)
    return results
