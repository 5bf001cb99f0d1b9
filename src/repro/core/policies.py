"""VCPU-to-core mapping policies.

A mapping policy decides, once per scheduling quantum, how the VCPUs that
want to run are placed onto physical cores:

* :class:`NoDmrPolicy` -- every VCPU gets one core to itself (the paper's
  ``No DMR`` / ``No DMR 2X`` baselines, depending only on how many VCPUs are
  exposed).
* :class:`AlwaysDmrPolicy` -- every VCPU gets a vocal/mute pair (a
  traditional DMR machine, the ``DMR Base`` / ``Reunion`` configuration).
* :class:`MmmIpcPolicy` -- like a traditional DMR machine, a VCPU is
  statically associated with a pair of cores, but when the VCPU does not
  currently require reliability the redundant core is simply idled and the
  VCPU runs alone (with the PAB protecting its stores).
* :class:`MmmTpPolicy` -- reliable VCPUs get pairs; performance VCPUs get
  single cores; because the cores are overcommitted, VCPUs that do not fit
  are paused for the quantum.  This is the policy that needs the hardware
  virtualisation layer.

Every policy is stateless: a plan depends only on the VCPUs and their
current DMR requirements, which the fuzz oracle ``check_dmr_pairs`` relies
on.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Sequence, Type

from repro.cpu.timing import CoreAssignment, ExecutionMode
from repro.dmr.reunion import ReunionPair
from repro.errors import SchedulingError
from repro.virt.scheduler import CoreAllocator, MappingPlan, VcpuPlacement
from repro.virt.vcpu import VirtualCPU

#: Signature of the factory creating Reunion pairs for DMR placements.
PairFactory = Callable[[int, int], ReunionPair]


class MappingPolicy(ABC):
    """Strategy deciding how VCPUs map onto cores each quantum."""

    #: Short machine-readable name used by experiment configs and reports.
    name: str = "abstract"
    #: Whether this policy is a mixed-mode policy (affects the PAB and the
    #: mode-transition accounting performed by the simulator).
    mixed_mode: bool = False

    @abstractmethod
    def plan_quantum(
        self,
        vcpus: Sequence[VirtualCPU],
        allocator: CoreAllocator,
        pair_factory: PairFactory,
    ) -> MappingPlan:
        """Produce the VCPU-to-core mapping for one quantum."""

    # Helper shared by the concrete policies.
    @staticmethod
    def _pair_placement(
        vcpu: VirtualCPU, allocator: CoreAllocator, pair_factory: PairFactory
    ) -> VcpuPlacement | None:
        cores = allocator.allocate_pair()
        if cores is None:
            return None
        vocal, mute = cores
        pair = pair_factory(vocal, mute)
        assignment = CoreAssignment(
            mode=ExecutionMode.DMR,
            primary_core=vocal,
            secondary_core=mute,
            reunion_pair=pair,
        )
        return VcpuPlacement(vcpu_id=vcpu.vcpu_id, assignment=assignment)

    @staticmethod
    def _single_placement(
        vcpu: VirtualCPU, allocator: CoreAllocator, mode: ExecutionMode
    ) -> VcpuPlacement | None:
        core = allocator.allocate_single()
        if core is None:
            return None
        assignment = CoreAssignment(mode=mode, primary_core=core)
        return VcpuPlacement(vcpu_id=vcpu.vcpu_id, assignment=assignment)


class NoDmrPolicy(MappingPolicy):
    """Every VCPU runs alone on one core; no redundancy anywhere."""

    name = "no-dmr"
    mixed_mode = False

    def plan_quantum(
        self,
        vcpus: Sequence[VirtualCPU],
        allocator: CoreAllocator,
        pair_factory: PairFactory,
    ) -> MappingPlan:
        plan = MappingPlan()
        for vcpu in vcpus:
            placement = self._single_placement(vcpu, allocator, ExecutionMode.BASELINE)
            if placement is None:
                plan.paused_vcpu_ids.append(vcpu.vcpu_id)
            else:
                plan.placements.append(placement)
        return plan


class AlwaysDmrPolicy(MappingPolicy):
    """Every VCPU runs redundantly on a vocal/mute pair (traditional DMR)."""

    name = "dmr-base"
    mixed_mode = False

    def plan_quantum(
        self,
        vcpus: Sequence[VirtualCPU],
        allocator: CoreAllocator,
        pair_factory: PairFactory,
    ) -> MappingPlan:
        plan = MappingPlan()
        for vcpu in vcpus:
            placement = self._pair_placement(vcpu, allocator, pair_factory)
            if placement is None:
                plan.paused_vcpu_ids.append(vcpu.vcpu_id)
            else:
                plan.placements.append(placement)
        return plan


class MmmIpcPolicy(MappingPolicy):
    """Mixed mode with statically paired cores; redundant cores idle.

    Each VCPU owns a pair of cores.  When the VCPU requires reliability the
    pair executes in DMR; when it does not, only the vocal core executes (in
    performance mode, with the PAB active) and the mute core idles, which
    removes Reunion's verification and synchronisation overheads and improves
    the VCPU's IPC.
    """

    name = "mmm-ipc"
    mixed_mode = True

    def plan_quantum(
        self,
        vcpus: Sequence[VirtualCPU],
        allocator: CoreAllocator,
        pair_factory: PairFactory,
    ) -> MappingPlan:
        plan = MappingPlan()
        for vcpu in vcpus:
            cores = allocator.allocate_pair()
            if cores is None:
                plan.paused_vcpu_ids.append(vcpu.vcpu_id)
                continue
            vocal, mute = cores
            if vcpu.requires_dmr():
                pair = pair_factory(vocal, mute)
                assignment = CoreAssignment(
                    mode=ExecutionMode.DMR,
                    primary_core=vocal,
                    secondary_core=mute,
                    reunion_pair=pair,
                )
                plan.placements.append(
                    VcpuPlacement(vcpu_id=vcpu.vcpu_id, assignment=assignment)
                )
            else:
                # The redundant core is deliberately left idle, but stays
                # reserved so the pair can re-form at the next OS entry.
                assignment = CoreAssignment(
                    mode=ExecutionMode.PERFORMANCE, primary_core=vocal
                )
                plan.placements.append(
                    VcpuPlacement(
                        vcpu_id=vcpu.vcpu_id,
                        assignment=assignment,
                        reserved_partner_core=mute,
                    )
                )
        return plan


class MmmTpPolicy(MappingPolicy):
    """Mixed mode with dynamic pairing and core overcommit (MMM-TP).

    Reliable VCPUs are placed first (each consumes a pair); the remaining
    cores then each run one performance VCPU.  VCPUs that do not fit are
    paused for the quantum -- exactly the overcommitted situation of Figure 4
    in the paper.
    """

    name = "mmm-tp"
    mixed_mode = True

    def plan_quantum(
        self,
        vcpus: Sequence[VirtualCPU],
        allocator: CoreAllocator,
        pair_factory: PairFactory,
    ) -> MappingPlan:
        plan = MappingPlan()
        reliable = [vcpu for vcpu in vcpus if vcpu.requires_dmr()]
        performance = [vcpu for vcpu in vcpus if not vcpu.requires_dmr()]

        for vcpu in reliable:
            placement = self._pair_placement(vcpu, allocator, pair_factory)
            if placement is None:
                plan.paused_vcpu_ids.append(vcpu.vcpu_id)
            else:
                plan.placements.append(placement)

        for vcpu in performance:
            placement = self._single_placement(vcpu, allocator, ExecutionMode.PERFORMANCE)
            if placement is None:
                plan.paused_vcpu_ids.append(vcpu.vcpu_id)
            else:
                plan.placements.append(placement)
        return plan


#: Registry of the built-in policies by their short names.
_POLICIES: Dict[str, Type[MappingPolicy]] = {
    NoDmrPolicy.name: NoDmrPolicy,
    AlwaysDmrPolicy.name: AlwaysDmrPolicy,
    MmmIpcPolicy.name: MmmIpcPolicy,
    MmmTpPolicy.name: MmmTpPolicy,
}


def policy_by_name(name: str) -> MappingPolicy:
    """Instantiate one of the built-in mapping policies by name."""
    try:
        return _POLICIES[name.lower()]()
    except KeyError as exc:
        known = ", ".join(sorted(_POLICIES))
        raise SchedulingError(f"unknown policy {name!r}; known policies: {known}") from exc


def available_policies() -> List[str]:
    """Names of the built-in mapping policies."""
    return sorted(_POLICIES)
