"""Tests for the machine builder and the MixedModeMulticore façade."""

from __future__ import annotations

import pytest

from repro.core.machine import MixedModeMachine, VmSpec
from repro.core.mmm import MixedModeMulticore
from repro.errors import ConfigurationError
from repro.isa.instructions import PrivilegeLevel
from repro.sim.simulator import SimulationOptions
from repro.virt.vcpu import ReliabilityMode
from repro.workloads.profiles import get_profile


class TestVmSpec:
    def test_profile_resolution_by_name_and_object(self):
        by_name = VmSpec("a", "apache", 2, ReliabilityMode.RELIABLE)
        by_object = VmSpec("b", get_profile("apache"), 2, ReliabilityMode.RELIABLE)
        assert by_name.profile().name == "apache"
        assert by_object.profile().name == "apache"

    def test_footprint_scale_applies(self):
        spec = VmSpec("a", "oltp", 2, ReliabilityMode.RELIABLE, footprint_scale=0.5)
        assert spec.profile().user_footprint_bytes == get_profile("oltp").user_footprint_bytes // 2


class TestMachineBuilder:
    def test_builds_expected_structure(self, small_machine, small_config):
        machine = small_machine
        assert machine.num_cores == small_config.num_cores
        assert len(machine.tlbs) == small_config.num_cores
        assert len(machine.pabs) == small_config.num_cores
        assert machine.allocator.num_cores == small_config.num_cores
        assert machine.total_vcpus == 3
        assert [vm.name for vm in machine.vms] == ["reliable", "performance"]

    def test_vcpu_ids_are_globally_unique_and_dense(self, small_machine):
        ids = sorted(small_machine.vcpus)
        assert ids == list(range(len(ids)))

    def test_reliable_vm_memory_marked_in_pat(self, small_machine):
        machine = small_machine
        reliable_region = machine.layout.vm_region(0)
        performance_region = machine.layout.vm_region(1)
        assert machine.pat.is_reliable_only_address(reliable_region.base)
        assert not machine.pat.is_reliable_only_address(performance_region.base)
        assert machine.pat.is_reliable_only_address(machine.layout.scratchpad_region().base)
        assert machine.pat.is_reliable_only_address(machine.layout.pat_region().base)

    def test_page_table_covers_every_vm_region(self, small_machine):
        machine = small_machine
        for vm_id in range(len(machine.vms)):
            for region in (
                machine.layout.user_region(vm_id),
                machine.layout.shared_region(vm_id),
                machine.layout.kernel_region(vm_id),
            ):
                assert machine.page_table.lookup_address(region.base) is not None

    def test_kernel_pages_are_privileged_only(self, small_machine):
        machine = small_machine
        entry = machine.page_table.lookup_address(machine.layout.kernel_region(0).base)
        assert not entry.user_writable

    def test_single_vm_machines_use_hypervisor_privilege_for_os_phases(self, small_config):
        spec = VmSpec("only", "apache", 1, ReliabilityMode.RELIABLE, phase_scale=0.002,
                      footprint_scale=0.1)
        machine = MixedModeMachine(small_config, [spec], policy="no-dmr")
        workload = machine.vms[0].vcpus[0].workload
        privileges = {i.privilege for i in workload.take(4000) if not i.is_user}
        assert privileges == {PrivilegeLevel.HYPERVISOR}

    def test_multi_vm_machines_use_guest_os_privilege(self, small_machine):
        workload = small_machine.vms[1].vcpus[0].workload
        privileges = {i.privilege for i in workload.take(4000) if not i.is_user}
        assert privileges == {PrivilegeLevel.GUEST_OS}

    def test_pair_factory_produces_distinct_pairs(self, small_machine):
        pair = small_machine.pair_factory(0, 1)
        assert pair.cores == (0, 1)

    def test_lookup_helpers(self, small_machine):
        assert small_machine.vm_by_name("reliable").vm_id == 0
        with pytest.raises(ConfigurationError):
            small_machine.vm_by_name("missing")
        assert small_machine.vcpu(0).vcpu_id == 0
        with pytest.raises(ConfigurationError):
            small_machine.vcpu(99)

    def test_machine_requires_at_least_one_vm(self, small_config):
        with pytest.raises(ConfigurationError):
            MixedModeMachine(small_config, [], policy="mmm-tp")

    @pytest.mark.parametrize("num_vcpus", [0, -2])
    def test_every_vm_needs_at_least_one_vcpu(self, small_config, num_vcpus):
        specs = [
            VmSpec("reliable", "oltp", 1, ReliabilityMode.RELIABLE),
            VmSpec("empty", "apache", num_vcpus, ReliabilityMode.PERFORMANCE),
        ]
        with pytest.raises(ConfigurationError, match="'empty' needs at least one VCPU"):
            MixedModeMachine(small_config, specs, "mmm-tp")

    def test_no_fault_injector_by_default(self, small_machine):
        assert small_machine.fault_injector is None


class TestFacade:
    def test_consolidated_server_defaults(self, eval_config):
        system = MixedModeMulticore.consolidated_server(
            config=eval_config, policy="mmm-tp", reliable_vcpus=2,
            phase_scale=0.003, footprint_scale=0.05,
        )
        assert system.policy_name == "mmm-tp"
        names = [vm.name for vm in system.machine.vms]
        assert names == ["reliable", "performance"]
        # MMM-TP exposes one performance VCPU per core by default.
        assert len(system.machine.vms[1].vcpus) == eval_config.num_cores

    def test_consolidated_server_ipc_policy_uses_half_the_vcpus(self, eval_config):
        system = MixedModeMulticore.consolidated_server(
            config=eval_config, policy="mmm-ipc", reliable_vcpus=2,
            phase_scale=0.003, footprint_scale=0.05,
        )
        assert len(system.machine.vms[1].vcpus) == eval_config.num_cores // 2

    def test_single_os_desktop_uses_user_only_mode_and_ipc_policy(self, eval_config):
        system = MixedModeMulticore.single_os_desktop(
            config=eval_config, vcpus_per_application=1,
            phase_scale=0.003, footprint_scale=0.05,
        )
        assert system.policy_name == "mmm-ipc"
        assert system.machine.vms[1].reliability is ReliabilityMode.PERFORMANCE_USER_ONLY

    def test_baseline_requires_at_least_one_vcpu(self, eval_config):
        with pytest.raises(ConfigurationError):
            MixedModeMulticore.baseline("apache", 0, "no-dmr", config=eval_config)

    def test_run_returns_results(self, eval_config):
        system = MixedModeMulticore.consolidated_server(
            config=eval_config, policy="mmm-tp", reliable_vcpus=1,
            performance_vcpus=2, phase_scale=0.003, footprint_scale=0.05,
        )
        result = system.run(total_cycles=6_000, warmup_cycles=2_000)
        assert result.total_cycles == 6_000
        assert result.vm("performance").user_instructions > 0
        assert result.overall_throughput() > 0

    def test_simulator_accepts_explicit_options(self, eval_config):
        system = MixedModeMulticore.baseline(
            "pmake", 2, "no-dmr", config=eval_config, phase_scale=0.003,
            footprint_scale=0.05,
        )
        simulator = system.simulator(SimulationOptions(total_cycles=3_000, warmup_cycles=0))
        result = simulator.run()
        assert result.policy_name == "no-dmr"
