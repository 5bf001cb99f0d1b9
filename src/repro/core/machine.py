"""Machine builder: wires every subsystem into a runnable mixed-mode machine.

:class:`MixedModeMachine` takes a :class:`~repro.config.system.SystemConfig`,
a list of guest-VM specifications and a mapping policy, and constructs the
complete simulated machine: physical address-space layout, page table, PAT,
per-core TLBs and PABs, the cache hierarchy, the core timing model, the core
allocator, the VCPU scratchpad and state-transfer engine, the mode-transition
engine, the synthetic workloads, the VCPUs and guest VMs, and (optionally) a
fault injector.  Reunion pairs are made on demand by :meth:`pair_factory`.
The :meth:`simulator` method returns a ready-to-run
:class:`repro.sim.simulator.Simulator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.common.addresses import AddressSpaceLayout, align_up
from repro.common.rng import DeterministicRng
from repro.config.system import SystemConfig
from repro.core.policies import MappingPolicy, policy_by_name
from repro.core.transitions import ModeTransitionEngine
from repro.cpu.timing import CoreTimingModel
from repro.dmr.reunion import ReunionPair
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector, FaultRates
from repro.isa.instructions import PrivilegeLevel
from repro.mem.hierarchy import MemoryHierarchy
from repro.protection.pab import ProtectionAssistanceBuffer
from repro.protection.pat import ProtectionAssistanceTable
from repro.protection.violations import ViolationLog
from repro.tlb.page_table import PageFlags, PageTable
from repro.tlb.tlb import TranslationLookasideBuffer
from repro.virt.migration import VcpuStateTransferEngine
from repro.virt.scheduler import CoreAllocator
from repro.virt.scratchpad import ScratchpadManager
from repro.virt.vcpu import ReliabilityMode, VirtualCPU
from repro.virt.vm import GuestVM
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import WorkloadProfile, get_profile


@dataclass(frozen=True)
class VmSpec:
    """Specification of one guest VM to build."""

    name: str
    workload: Union[str, WorkloadProfile]
    num_vcpus: int
    reliability: ReliabilityMode
    #: Scale factor applied to the workload's user/OS phase lengths so that
    #: scaled-down simulations still alternate between user and OS code.
    phase_scale: float = 1.0
    #: Scale factor applied to the workload's working-set sizes (used by the
    #: small test configuration).
    footprint_scale: float = 1.0
    #: ``False`` builds the VM *deferred*: its address-space regions, page
    #: tables, workloads and VCPUs are constructed up front (so the machine
    #: shape is fully deterministic), but the VM does not participate in the
    #: gang schedule until a ``VmArrived`` timeline event admits it.
    present_at_start: bool = True

    def profile(self) -> WorkloadProfile:
        """Resolve the workload profile (by name or pass-through)."""
        if isinstance(self.workload, WorkloadProfile):
            profile = self.workload
        else:
            profile = get_profile(self.workload)
        if self.footprint_scale != 1.0:
            profile = profile.scaled(footprint_scale=self.footprint_scale)
        return profile


class MixedModeMachine:
    """A fully wired mixed-mode multicore ready for simulation."""

    def __init__(
        self,
        config: SystemConfig,
        vm_specs: Sequence[VmSpec],
        policy: Union[str, MappingPolicy],
        seed: int = 0,
        fault_rates: Optional[FaultRates] = None,
    ) -> None:
        if not vm_specs:
            raise ConfigurationError("a machine needs at least one guest VM")
        for spec in vm_specs:
            if spec.num_vcpus < 1:
                raise ConfigurationError(
                    f"VM {spec.name!r} needs at least one VCPU, not {spec.num_vcpus}"
                )
        self.config = config.validate()
        self.vm_specs = list(vm_specs)
        self.policy = policy_by_name(policy) if isinstance(policy, str) else policy
        self.seed = seed
        self.rng = DeterministicRng(seed)

        self.layout = self._build_layout()
        self.page_table = PageTable(page_size=self.config.pab.page_bytes)
        self.pat = ProtectionAssistanceTable(
            physical_memory_bytes=self.layout.total_bytes,
            page_size=self.config.pab.page_bytes,
            backing_region=self.layout.pat_region(),
        )
        self._populate_page_table_and_pat()

        self.hierarchy = MemoryHierarchy(self.config)
        self.violation_log = ViolationLog()
        self.pabs: List[ProtectionAssistanceBuffer] = [
            ProtectionAssistanceBuffer(
                config=self.config.pab,
                pat=self.pat,
                core_id=core_id,
                hierarchy=self.hierarchy,
            )
            for core_id in range(self.config.num_cores)
        ]
        self.tlbs: List[TranslationLookasideBuffer] = [
            TranslationLookasideBuffer(config=self.config.tlb, page_table=self.page_table)
            for _ in range(self.config.num_cores)
        ]

        self.fault_injector = self._build_fault_injector(fault_rates)
        self.timing_model = CoreTimingModel(
            config=self.config,
            hierarchy=self.hierarchy,
            tlbs=self.tlbs,
            pabs=self.pabs,
            violation_log=self.violation_log,
            fault_hook=self.fault_injector,
        )

        self.allocator = CoreAllocator(self.config.num_cores)

        self.vms: List[GuestVM] = []
        self.vcpus: Dict[int, VirtualCPU] = {}
        self._build_vms()

        self.scratchpad = ScratchpadManager(
            layout=self.layout,
            vcpu_state_bytes=self.config.virtualization.vcpu_state_bytes,
        )
        self.transfer_engine = VcpuStateTransferEngine(
            hierarchy=self.hierarchy, scratchpad=self.scratchpad
        )
        self.transition_engine = ModeTransitionEngine(
            config=self.config,
            hierarchy=self.hierarchy,
            transfer_engine=self.transfer_engine,
            violation_log=self.violation_log,
        )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    def _build_layout(self) -> AddressSpaceLayout:
        page = self.config.pab.page_bytes
        max_user_need = 0
        total_vcpus = 0
        for spec in self.vm_specs:
            profile = spec.profile()
            max_user_need = max(
                max_user_need, profile.user_footprint_bytes * max(1, spec.num_vcpus)
            )
            total_vcpus += spec.num_vcpus
        # The user portion is half of each VM's region; leave 25% headroom.
        vm_memory = align_up(max(4 * page, int(max_user_need * 2 * 1.25)), page)
        slot_bytes = align_up(self.config.virtualization.vcpu_state_bytes, 64)
        scratchpad = align_up(max(64 * 1024, 2 * total_vcpus * slot_bytes * 2), page)
        return AddressSpaceLayout(
            vm_memory_bytes=vm_memory,
            num_vms=len(self.vm_specs),
            scratchpad_bytes=scratchpad,
            pat_bytes=align_up(max(page, vm_memory // 1024), page),
            page_size=page,
            shared_fraction=0.25,
            kernel_fraction=0.25,
        )

    def _populate_page_table_and_pat(self) -> None:
        for vm_id, spec in enumerate(self.vm_specs):
            reliable = spec.reliability is ReliabilityMode.RELIABLE
            reliable_flag = PageFlags.RELIABLE_ONLY if reliable else PageFlags.NONE
            self.page_table.map_region(
                self.layout.user_region(vm_id),
                PageFlags.USER_READ | PageFlags.USER_WRITE | reliable_flag,
                domain=vm_id,
            )
            self.page_table.map_region(
                self.layout.shared_region(vm_id),
                PageFlags.USER_READ | PageFlags.USER_WRITE | reliable_flag,
                domain=vm_id,
            )
            self.page_table.map_region(
                self.layout.kernel_region(vm_id),
                PageFlags.USER_READ | PageFlags.PRIVILEGED_ONLY | reliable_flag,
                domain=vm_id,
            )
            if reliable:
                self.pat.mark_reliable_region(self.layout.vm_region(vm_id))
        # System-software structures are always reliable-only.
        for region in (self.layout.scratchpad_region(), self.layout.pat_region()):
            self.page_table.map_region(
                region,
                PageFlags.PRIVILEGED_ONLY | PageFlags.RELIABLE_ONLY,
                domain=-1,
            )
            self.pat.mark_reliable_region(region)

    def _build_fault_injector(
        self, fault_rates: Optional[FaultRates]
    ) -> Optional[FaultInjector]:
        if fault_rates is None or not fault_rates.any_active():
            return None
        target = None
        for vm_id, spec in enumerate(self.vm_specs):
            if spec.reliability is ReliabilityMode.RELIABLE:
                region = self.layout.user_region(vm_id)
                target = region.base + 64
                break
        return FaultInjector(
            rates=fault_rates,
            rng=self.rng.fork("faults"),
            reliable_target_address=target,
        )

    def _build_vms(self) -> None:
        single_os = len(self.vm_specs) == 1
        os_privilege = (
            PrivilegeLevel.HYPERVISOR if single_os else PrivilegeLevel.GUEST_OS
        )
        if not any(spec.present_at_start for spec in self.vm_specs):
            raise ConfigurationError(
                "a machine needs at least one VM present at start"
            )
        next_vcpu_id = 0
        for vm_id, spec in enumerate(self.vm_specs):
            vm = GuestVM(
                vm_id=vm_id,
                name=spec.name,
                reliability=spec.reliability,
                workload_name=(
                    spec.workload
                    if isinstance(spec.workload, str)
                    else spec.workload.name
                ),
                active=spec.present_at_start,
            )
            profile = spec.profile()
            for index in range(spec.num_vcpus):
                workload = SyntheticWorkload(
                    profile=profile,
                    layout=self.layout,
                    vm_id=vm_id,
                    vcpu_index=index,
                    num_vcpus=spec.num_vcpus,
                    seed=self.seed + 1000 * vm_id + index,
                    phase_scale=spec.phase_scale,
                    os_privilege=os_privilege,
                )
                vcpu = VirtualCPU(
                    vcpu_id=next_vcpu_id,
                    vm_id=vm_id,
                    workload=workload,
                    mode_register=spec.reliability,
                )
                next_vcpu_id += 1
                vm.add_vcpu(vcpu)
                self.vcpus[vcpu.vcpu_id] = vcpu
            self.vms.append(vm)

    # ------------------------------------------------------------------ #
    # Public helpers
    # ------------------------------------------------------------------ #

    def pair_factory(self, vocal_core: int, mute_core: int) -> ReunionPair:
        """Create a Reunion pair on the given cores (used by the policies)."""
        return ReunionPair(
            vocal_core_id=vocal_core,
            mute_core_id=mute_core,
            config=self.config.reunion,
        )

    @property
    def num_cores(self) -> int:
        """Number of physical cores on the chip."""
        return self.config.num_cores

    # ------------------------------------------------------------------ #
    # Dynamic lifecycle (driven by timeline events mid-run)
    # ------------------------------------------------------------------ #

    @property
    def retired_cores(self) -> frozenset:
        """Cores currently retired by permanent faults."""
        return self.allocator.retired_cores

    @property
    def num_healthy_cores(self) -> int:
        """Cores available for scheduling right now."""
        return self.allocator.num_healthy_cores

    def retire_core(self, core_id: int) -> None:
        """Take one core out of service (a permanent fault).

        The core leaves the allocator's pool; the next quantum's mapping
        plan re-pairs any DMR partner around the failure.  Retiring every
        core is rejected -- a chip with no healthy cores cannot make
        progress and the scenario is almost certainly a mistake.
        """
        if self.num_healthy_cores <= 1:
            raise ConfigurationError(
                f"cannot retire core {core_id}: it is the last healthy core"
            )
        self.allocator.retire(core_id)

    def restore_core(self, core_id: int) -> None:
        """Return a retired core to service (a repair)."""
        self.allocator.restore(core_id)

    @property
    def active_vms(self) -> List[GuestVM]:
        """The guest VMs currently participating in the gang schedule."""
        return [vm for vm in self.vms if vm.active]

    def admit_vm(self, name: str) -> GuestVM:
        """Admit a deferred (or previously drained) VM to the schedule."""
        vm = self.vm_by_name(name)
        if vm.active:
            raise ConfigurationError(f"VM {name!r} is already active")
        vm.active = True
        return vm

    def drain_vm(self, name: str) -> GuestVM:
        """Drain an active VM from the schedule (its counters are kept)."""
        vm = self.vm_by_name(name)
        if not vm.active:
            raise ConfigurationError(f"VM {name!r} is not active")
        if len(self.active_vms) == 1:
            raise ConfigurationError(
                f"cannot drain VM {name!r}: it is the last active VM"
            )
        vm.active = False
        return vm

    def set_policy(self, policy: Union[str, MappingPolicy]) -> MappingPolicy:
        """Hot-swap the VCPU-to-core mapping policy (privileged software)."""
        self.policy = policy_by_name(policy) if isinstance(policy, str) else policy
        return self.policy

    def set_vm_reliability(self, name: str, mode: ReliabilityMode) -> GuestVM:
        """Rewrite one VM's reliability requirement and all of its VCPUs'
        mode registers (the paper's privileged per-VCPU register write)."""
        vm = self.vm_by_name(name)
        vm.reliability = mode
        for vcpu in vm.vcpus:
            vcpu.write_mode_register(mode, PrivilegeLevel.HYPERVISOR)
        return vm

    @property
    def total_vcpus(self) -> int:
        """Number of VCPUs exposed to system software."""
        return len(self.vcpus)

    def vm_by_name(self, name: str) -> GuestVM:
        """Look up a guest VM by its spec name."""
        for vm in self.vms:
            if vm.name == name:
                return vm
        raise ConfigurationError(f"no VM named {name!r}")

    def vcpu(self, vcpu_id: int) -> VirtualCPU:
        """Look up a VCPU by id."""
        try:
            return self.vcpus[vcpu_id]
        except KeyError as exc:
            raise ConfigurationError(f"no VCPU with id {vcpu_id}") from exc

    def simulator(self, options=None, timeline=None):
        """Create a :class:`repro.sim.simulator.Simulator` for this machine."""
        from repro.sim.simulator import SimulationOptions, Simulator

        if options is None:
            options = SimulationOptions()
        return Simulator(machine=self, options=options, timeline=timeline)
