"""Tests for VCPUs, guest VMs, the scratchpad, and the core allocator."""

from __future__ import annotations

import pytest

from repro.common.addresses import AddressSpaceLayout
from repro.cpu.timing import CoreAssignment, ExecutionMode
from repro.errors import ConfigurationError, SchedulingError
from repro.isa.instructions import PrivilegeLevel
from repro.virt.scheduler import CoreAllocator, GangScheduler, MappingPlan, VcpuPlacement
from repro.virt.scratchpad import ScratchpadManager
from repro.virt.vcpu import ReliabilityMode, VirtualCPU
from repro.virt.vm import GuestVM
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import get_profile


@pytest.fixture
def layout():
    return AddressSpaceLayout(vm_memory_bytes=1024 * 1024, num_vms=1)


def make_vcpu(layout, vcpu_id=0, vm_id=0, mode=ReliabilityMode.RELIABLE, name="apache"):
    workload = SyntheticWorkload(
        profile=get_profile(name), layout=layout, vm_id=vm_id, vcpu_index=0,
        num_vcpus=1, seed=vcpu_id, phase_scale=0.002,
    )
    return VirtualCPU(vcpu_id=vcpu_id, vm_id=vm_id, workload=workload, mode_register=mode)


class TestVirtualCpu:
    def test_mode_register_is_privileged(self, layout):
        vcpu = make_vcpu(layout)
        with pytest.raises(SchedulingError):
            vcpu.write_mode_register(ReliabilityMode.PERFORMANCE, PrivilegeLevel.USER)
        vcpu.write_mode_register(ReliabilityMode.PERFORMANCE, PrivilegeLevel.HYPERVISOR)
        assert vcpu.mode_register is ReliabilityMode.PERFORMANCE

    def test_requires_dmr_by_mode(self, layout):
        reliable = make_vcpu(layout, mode=ReliabilityMode.RELIABLE)
        performance = make_vcpu(layout, mode=ReliabilityMode.PERFORMANCE)
        user_only = make_vcpu(layout, mode=ReliabilityMode.PERFORMANCE_USER_ONLY)
        assert reliable.requires_dmr()
        assert not performance.requires_dmr(PrivilegeLevel.GUEST_OS)
        assert not user_only.requires_dmr(PrivilegeLevel.USER)
        assert user_only.requires_dmr(PrivilegeLevel.GUEST_OS)
        assert user_only.requires_dmr(PrivilegeLevel.HYPERVISOR)

    @pytest.mark.parametrize(
        "mode,privilege,dmr",
        [
            pytest.param(ReliabilityMode.RELIABLE, PrivilegeLevel.USER, True, id="reliable-user"),
            pytest.param(
                ReliabilityMode.RELIABLE, PrivilegeLevel.GUEST_OS, True, id="reliable-guest-os"
            ),
            pytest.param(
                ReliabilityMode.RELIABLE, PrivilegeLevel.HYPERVISOR, True, id="reliable-hypervisor"
            ),
            pytest.param(
                ReliabilityMode.PERFORMANCE, PrivilegeLevel.USER, False, id="performance-user"
            ),
            pytest.param(
                ReliabilityMode.PERFORMANCE,
                PrivilegeLevel.GUEST_OS,
                False,
                id="performance-guest-os",
            ),
            # A PERFORMANCE register never escalates, not even for
            # hypervisor-privilege code.  Only one-VM machines run such code,
            # and every one-VM machine the specs build is RELIABLE.
            pytest.param(
                ReliabilityMode.PERFORMANCE,
                PrivilegeLevel.HYPERVISOR,
                False,
                id="performance-hypervisor",
            ),
            pytest.param(
                ReliabilityMode.PERFORMANCE_USER_ONLY,
                PrivilegeLevel.USER,
                False,
                id="user-only-user",
            ),
            pytest.param(
                ReliabilityMode.PERFORMANCE_USER_ONLY,
                PrivilegeLevel.GUEST_OS,
                True,
                id="user-only-guest-os",
            ),
            pytest.param(
                ReliabilityMode.PERFORMANCE_USER_ONLY,
                PrivilegeLevel.HYPERVISOR,
                True,
                id="user-only-hypervisor",
            ),
        ],
    )
    def test_requires_dmr_decision_table(self, layout, mode, privilege, dmr):
        """The rule the simulator runs: three modes by three privilege levels."""
        assert make_vcpu(layout, mode=mode).requires_dmr(privilege) is dmr

    def test_requires_dmr_follows_workload_phase(self, layout):
        vcpu = make_vcpu(layout, mode=ReliabilityMode.PERFORMANCE_USER_ONLY)
        assert not vcpu.requires_dmr()
        while not vcpu.workload.in_os_phase:
            vcpu.workload.next_instruction()
        assert vcpu.requires_dmr()

    def test_accounting(self, layout):
        vcpu = make_vcpu(layout)
        vcpu.record_quantum(cycles=1000, instructions=800, user_instructions=700, os_instructions=100)
        vcpu.record_quantum(cycles=500, instructions=300, user_instructions=300, os_instructions=0)
        vcpu.record_mode_switch(2500)
        assert vcpu.active_cycles == 1500
        assert vcpu.committed_user_instructions == 1000
        assert vcpu.mode_switches == 1
        assert vcpu.mode_switch_cycles == 2500


class TestGuestVm:
    def test_add_vcpu_inherits_reliability(self, layout):
        vm = GuestVM(vm_id=0, name="g", reliability=ReliabilityMode.PERFORMANCE, workload_name="apache")
        vcpu = make_vcpu(layout, mode=ReliabilityMode.RELIABLE)
        vm.add_vcpu(vcpu)
        assert vcpu.mode_register is ReliabilityMode.PERFORMANCE
        assert vm.vcpus == [vcpu]
        assert not vm.is_reliable

    def test_add_vcpu_of_wrong_vm_rejected(self, layout):
        vm = GuestVM(vm_id=0, name="g", reliability=ReliabilityMode.RELIABLE, workload_name="apache")
        with pytest.raises(ConfigurationError):
            vm.add_vcpu(make_vcpu(layout, vm_id=3))


class TestScratchpad:
    def test_slots_are_unique_per_vcpu_and_copy(self):
        layout = AddressSpaceLayout(scratchpad_bytes=64 * 1024)
        scratchpad = ScratchpadManager(layout, vcpu_state_bytes=2355)
        slots = [
            scratchpad.slot_for(0, ScratchpadManager.PRIMARY),
            scratchpad.slot_for(0, ScratchpadManager.REDUNDANT),
            scratchpad.slot_for(1, ScratchpadManager.PRIMARY),
        ]
        for i, a in enumerate(slots):
            for b in slots[i + 1:]:
                assert a.end <= b.base or b.end <= a.base
        # Repeated requests return the same slot and allocate none: the next
        # new copy takes the fourth slot.
        assert scratchpad.slot_for(0, ScratchpadManager.PRIMARY) == slots[0]
        assert scratchpad.slot_for(1, ScratchpadManager.REDUNDANT) == layout.scratchpad_slot(
            3, scratchpad.slot_bytes
        )

    def test_line_addresses_cover_the_slot(self):
        layout = AddressSpaceLayout(scratchpad_bytes=64 * 1024)
        scratchpad = ScratchpadManager(layout, vcpu_state_bytes=2355)
        addresses = scratchpad.line_addresses(2)
        assert len(addresses) == scratchpad.slot_lines == 37
        assert all(a % 64 == 0 for a in addresses)

    def test_exhaustion_raises(self):
        layout = AddressSpaceLayout(scratchpad_bytes=8 * 1024)
        scratchpad = ScratchpadManager(layout, vcpu_state_bytes=2355)
        with pytest.raises(ConfigurationError):
            for vcpu_id in range(100):
                scratchpad.slot_for(vcpu_id)

    def test_unknown_copy_kind_rejected(self):
        layout = AddressSpaceLayout()
        scratchpad = ScratchpadManager(layout, vcpu_state_bytes=2355)
        with pytest.raises(ConfigurationError):
            scratchpad.slot_for(0, "tertiary")


class TestCoreAllocator:
    def test_allocation_and_reset(self):
        allocator = CoreAllocator(4)
        assert allocator.allocate_pair() == (0, 1)
        assert allocator.allocate_single() == 2
        assert allocator.allocate_single() == 3
        assert allocator.allocate_single() is None
        assert allocator.allocate_pair() is None
        allocator.reset()
        assert allocator.allocate_pair() == (0, 1)
        assert allocator.allocate_pair() == (2, 3)
        assert allocator.allocate_single() is None

    def test_pair_needs_two_cores(self):
        allocator = CoreAllocator(1)
        assert allocator.allocate_pair() is None
        assert allocator.allocate_single() == 0


class TestMappingPlan:
    def test_duplicate_core_rejected(self):
        plan = MappingPlan(
            placements=[
                VcpuPlacement(0, CoreAssignment(mode=ExecutionMode.BASELINE, primary_core=1)),
                VcpuPlacement(1, CoreAssignment(mode=ExecutionMode.BASELINE, primary_core=1)),
            ]
        )
        with pytest.raises(SchedulingError):
            plan.validate(num_cores=4)

    def test_reserved_partner_counts_as_occupied(self):
        plan = MappingPlan(
            placements=[
                VcpuPlacement(
                    0,
                    CoreAssignment(mode=ExecutionMode.PERFORMANCE, primary_core=0),
                    reserved_partner_core=1,
                ),
                VcpuPlacement(1, CoreAssignment(mode=ExecutionMode.BASELINE, primary_core=1)),
            ]
        )
        with pytest.raises(SchedulingError):
            plan.validate(num_cores=4)

    def test_nonexistent_core_rejected(self):
        plan = MappingPlan(
            placements=[VcpuPlacement(0, CoreAssignment(mode=ExecutionMode.BASELINE, primary_core=9))]
        )
        with pytest.raises(SchedulingError):
            plan.validate(num_cores=4)

    def test_summary_properties(self):
        plan = MappingPlan(
            placements=[
                VcpuPlacement(
                    0,
                    CoreAssignment(mode=ExecutionMode.DMR, primary_core=0, secondary_core=1),
                ),
            ],
            paused_vcpu_ids=[5],
        )
        assert plan.cores_in_use == 2


class TestGangScheduler:
    def test_round_robin_by_timeslice(self):
        gang = GangScheduler(vm_ids=[0, 1], timeslice_cycles=100)
        assert gang.vm_at(0) == 0
        assert gang.vm_at(99) == 0
        assert gang.vm_at(100) == 1
        assert gang.vm_at(250) == 0
        assert gang.next_boundary(0) == 100
        assert gang.next_boundary(150) == 200

    def test_invalid_construction(self):
        with pytest.raises(SchedulingError):
            GangScheduler(vm_ids=[], timeslice_cycles=10)
        with pytest.raises(SchedulingError):
            GangScheduler(vm_ids=[0], timeslice_cycles=0)
