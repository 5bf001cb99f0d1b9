"""Tests for the quantum-based simulation loop."""

from __future__ import annotations

import pytest

from repro.cpu.timing import CoreAssignment, ExecutionMode
from repro.errors import SimulationError
from repro.faults.injector import FaultRates
from repro.sim.simulator import SimulationOptions, Simulator
from repro.virt.scheduler import VcpuPlacement
from repro.virt.vcpu import ReliabilityMode
from tests.conftest import make_small_machine


def run_machine(machine, **options):
    defaults = dict(total_cycles=8_000, warmup_cycles=2_000)
    defaults.update(options)
    return Simulator(machine, SimulationOptions(**defaults)).run()


class TestOptions:
    def test_validation(self):
        with pytest.raises(SimulationError):
            SimulationOptions(total_cycles=0).validate()
        with pytest.raises(SimulationError):
            SimulationOptions(warmup_cycles=-1).validate()
        with pytest.raises(SimulationError):
            SimulationOptions(quantum_cycles=0).validate()
        with pytest.raises(SimulationError):
            SimulationOptions(transition_cost_scale=100.0).validate()
        assert SimulationOptions().validate() is not None

    def test_minimum_quantum_cycles_must_be_positive(self):
        # A non-positive floor would make fine-grained switching spin.
        with pytest.raises(SimulationError):
            SimulationOptions(minimum_quantum_cycles=0).validate()
        with pytest.raises(SimulationError):
            SimulationOptions(minimum_quantum_cycles=-64).validate()
        assert SimulationOptions(minimum_quantum_cycles=1).validate() is not None


class TestBasicRuns:
    def test_run_produces_work_for_both_vms(self, small_config):
        machine = make_small_machine(small_config)
        result = run_machine(machine)
        assert result.total_cycles == 8_000
        assert result.vm("reliable").user_instructions > 0
        assert result.vm("performance").user_instructions > 0
        assert result.overall_throughput() > 0

    def test_runs_are_reproducible(self, small_config):
        first = run_machine(make_small_machine(small_config, seed=11))
        second = run_machine(make_small_machine(small_config, seed=11))
        assert first.to_dict() == second.to_dict()

    def test_different_seeds_differ(self, small_config):
        first = run_machine(make_small_machine(small_config, seed=1))
        second = run_machine(make_small_machine(small_config, seed=2))
        assert first.total_user_instructions != second.total_user_instructions

    def test_warmup_is_excluded_from_measurement(self, small_config):
        machine = make_small_machine(small_config, seed=5)
        with_warmup = run_machine(machine, total_cycles=6_000, warmup_cycles=6_000)
        assert with_warmup.total_cycles == 6_000
        assert with_warmup.warmup_cycles == 6_000
        # Counters were reset at the measurement boundary: committed work must
        # be attributable to at most the measured cycles.
        for vm in with_warmup.vm_results:
            for vcpu in vm.vcpus:
                assert vcpu.active_cycles <= 6_000 + 2 * machine.config.virtualization.timeslice_cycles

    def test_gang_scheduling_time_shares_the_machine(self, small_config):
        machine = make_small_machine(small_config, seed=7)
        result = run_machine(machine, total_cycles=16_000, warmup_cycles=0)
        # Each VM is scheduled for roughly half of the timeslices, so active
        # cycles per VCPU stay well below the total.
        for vm in result.vm_results:
            for vcpu in vm.vcpus:
                assert vcpu.active_cycles < 0.75 * result.total_cycles

    def test_quantum_stats_accumulate(self, small_config):
        result = run_machine(make_small_machine(small_config))
        assert result.quantum_stats.get("quanta", 0) > 0
        assert result.quantum_stats.get("placed_vcpus", 0) > 0

    @pytest.mark.parametrize(
        "policy, performance_mode",
        [
            ("mmm-tp", ReliabilityMode.PERFORMANCE),
            # Fine-grained switching runs its own execute loop.
            ("mmm-ipc", ReliabilityMode.PERFORMANCE_USER_ONLY),
        ],
    )
    def test_quantum_stats_hold_only_the_simulators_keys(
        self, small_config, policy, performance_mode
    ):
        machine = make_small_machine(
            small_config, policy=policy, performance_mode=performance_mode
        )
        result = run_machine(machine)
        assert set(result.quantum_stats) == {
            "quanta",
            "placed_vcpus",
            "paused_vcpus",
            "core_cycles_used",
            "core_cycles_capacity",
            "core_cycles_nominal",
        }


class TestPolicyBehaviour:
    def test_dmr_base_never_transitions(self, small_config):
        machine = make_small_machine(small_config, policy="dmr-base")
        result = run_machine(machine)
        assert result.transitions == 0
        assert result.enter_dmr_transitions == 0

    def test_mixed_mode_transitions_at_vm_switches(self, small_config):
        machine = make_small_machine(small_config, policy="mmm-tp")
        result = run_machine(machine, total_cycles=16_000, warmup_cycles=0)
        assert result.transitions > 0
        assert result.enter_dmr_transitions > 0
        assert result.leave_dmr_transitions > 0
        assert result.average_leave_dmr_cycles > result.average_enter_dmr_cycles

    def test_mmm_tp_outperforms_dmr_base_for_the_performance_vm(self, small_config):
        base = run_machine(
            make_small_machine(small_config, policy="dmr-base", performance_vcpus=2, seed=9),
            total_cycles=32_000, warmup_cycles=4_000,
        )
        mmm = run_machine(
            make_small_machine(small_config, policy="mmm-tp", performance_vcpus=2, seed=9),
            total_cycles=32_000, warmup_cycles=4_000, transition_cost_scale=0.02,
        )
        assert (
            mmm.vm("performance").throughput(mmm.total_cycles)
            > base.vm("performance").throughput(base.total_cycles)
        )

    def test_overcommitted_vcpus_are_paused(self, small_config):
        machine = make_small_machine(small_config, policy="dmr-base", performance_vcpus=6)
        result = run_machine(machine)
        assert result.paused_vcpu_quanta > 0


class TestFineGrainedSwitching:
    def test_user_only_vcpus_switch_at_syscalls(self, small_config):
        machine = make_small_machine(
            small_config,
            policy="mmm-ipc",
            performance_mode=ReliabilityMode.PERFORMANCE_USER_ONLY,
            performance_vcpus=1,
            seed=13,
        )
        result = run_machine(machine, total_cycles=20_000, warmup_cycles=0,
                             transition_cost_scale=0.01)
        performance = result.vm("performance")
        switches = sum(v.mode_switches for v in performance.vcpus)
        assert switches > 0
        assert result.transitions >= switches

    def test_fine_grained_can_be_disabled(self, small_config):
        machine = make_small_machine(
            small_config,
            policy="mmm-ipc",
            performance_mode=ReliabilityMode.PERFORMANCE_USER_ONLY,
            performance_vcpus=1,
            seed=13,
        )
        result = run_machine(
            machine, total_cycles=20_000, warmup_cycles=0, fine_grained_switching=False
        )
        performance = result.vm("performance")
        # Without fine-grained switching the only transitions are at VM
        # boundaries, charged per placement rather than per syscall.
        assert sum(v.mode_switches for v in performance.vcpus) <= result.transitions


class TestMeasurementBoundary:
    def test_transition_counters_exclude_warmup(self, small_config):
        # The warmup period (two timeslices here) performs its own boundary
        # transitions; the engine's counters must be reset alongside the
        # simulator's at the measurement boundary, or the per-run transition
        # counts of the result would disagree with each other.
        machine = make_small_machine(small_config, policy="mmm-tp", seed=7)
        result = run_machine(machine, total_cycles=16_000, warmup_cycles=8_000)
        assert result.transitions > 0
        assert (
            result.enter_dmr_transitions + result.leave_dmr_transitions
            == result.transitions
        )

    def test_engine_averages_reflect_measured_transitions_only(self, small_config):
        machine = make_small_machine(small_config, policy="mmm-tp", seed=7)
        result = run_machine(machine, total_cycles=16_000, warmup_cycles=8_000)
        assert result.average_enter_dmr_cycles > 0
        assert result.average_leave_dmr_cycles > 0
        # The engine was reset at the boundary, so its live counters agree
        # with the result snapshot instead of including warmup transitions.
        engine = machine.transition_engine
        assert engine.stats.get("enter_dmr_transitions") == result.enter_dmr_transitions
        assert engine.stats.get("leave_dmr_transitions") == result.leave_dmr_transitions


def make_fine_grained_simulator(small_config, **options):
    machine = make_small_machine(
        small_config,
        policy="mmm-ipc",
        performance_mode=ReliabilityMode.PERFORMANCE_USER_ONLY,
        performance_vcpus=1,
        seed=13,
    )
    defaults = dict(total_cycles=8_000, warmup_cycles=0)
    defaults.update(options)
    return machine, Simulator(machine, SimulationOptions(**defaults))


class TestFineGrainedEdgeCases:
    def fine_grained_placement(self, machine):
        machine.allocator.reset()
        plan = machine.policy.plan_quantum(
            machine.vms[1].vcpus, machine.allocator, machine.pair_factory
        )
        (placement,) = plan.placements
        return machine.vcpus[placement.vcpu_id], placement

    def test_budget_exhausted_exactly_at_minimum_quantum(self, small_config):
        # remaining == minimum_quantum_cycles means no useful work fits:
        # the loop must not run (and certainly must not spin).
        machine, sim = make_fine_grained_simulator(small_config)
        vcpu, placement = self.fine_grained_placement(machine)
        sim._run_fine_grained(
            vcpu, placement, sim.options.minimum_quantum_cycles, cycle=0, active_cores=2
        )
        assert vcpu.committed_instructions == 0
        assert vcpu.mode_switches == 0
        assert sim._transitions == 0

    def test_zero_transition_cost_scale_switches_for_free(self, small_config):
        machine, sim = make_fine_grained_simulator(
            small_config, total_cycles=20_000, transition_cost_scale=0.0
        )
        result = sim.run()
        performance = result.vm("performance")
        assert sum(v.mode_switches for v in performance.vcpus) > 0
        assert sum(v.mode_switch_cycles for v in performance.vcpus) == 0
        assert result.transitions > 0
        assert result.transition_cycles == 0

    def test_missing_reserved_partner_core_is_an_error(self, small_config):
        machine, sim = make_fine_grained_simulator(small_config)
        vcpu, placement = self.fine_grained_placement(machine)
        # A performance placement without a reserved partner core cannot
        # re-form its DMR pair at the next OS entry.
        bare = VcpuPlacement(
            vcpu_id=placement.vcpu_id,
            assignment=CoreAssignment(
                mode=ExecutionMode.PERFORMANCE,
                primary_core=placement.assignment.primary_core,
            ),
        )
        with pytest.raises(SimulationError):
            sim._run_fine_grained(vcpu, bare, 4_000, cycle=0, active_cores=1)


class TestFaultInjection:
    def test_store_faults_are_blocked_by_the_pab(self, small_config):
        machine = make_small_machine(
            small_config,
            policy="mmm-tp",
            seed=23,
            fault_rates=FaultRates(store_address=0.05),
        )
        result = run_machine(
            machine, total_cycles=16_000, warmup_cycles=0, transition_cost_scale=0.02
        )
        assert machine.fault_injector is not None
        assert machine.fault_injector.stats.get("store_address_faults") > 0
        assert result.violation_counts.get("PAB_BLOCKED", 0) > 0
        assert result.silent_corruptions() == 0

    def test_execution_faults_are_detected_by_dmr(self, small_config):
        machine = make_small_machine(
            small_config,
            policy="dmr-base",
            seed=22,
            fault_rates=FaultRates(execution_result=0.01),
        )
        result = run_machine(machine, total_cycles=12_000, warmup_cycles=0)
        assert result.violation_counts.get("DMR_DETECTED", 0) > 0
