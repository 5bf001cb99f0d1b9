"""End-to-end integration tests across the whole stack.

These exercise the public API the way the examples and benchmarks do, on a
scaled-down 16-core machine, and check the qualitative results the paper
leads with: mixed-mode operation speeds up performance applications without
sacrificing the protection of reliable ones.
"""

from __future__ import annotations

import pytest

from repro import (
    FaultRates,
    MixedModeMulticore,
    ReliabilityMode,
    policy_by_name,
)
from repro.config.presets import evaluation_system_config
from repro.core.machine import VmSpec
from repro.faults.campaign import FaultInjectionCampaign
from repro.sim.simulator import SimulationOptions


CONFIG = evaluation_system_config(capacity_scale=16, timeslice_cycles=6_000)
RUN = dict(total_cycles=24_000, warmup_cycles=6_000)


def consolidated(policy, seed=0, performance_vcpus=None):
    return MixedModeMulticore.consolidated_server(
        reliable_workload="oltp",
        performance_workload="apache",
        policy=policy,
        reliable_vcpus=4,
        performance_vcpus=performance_vcpus,
        config=CONFIG,
        seed=seed,
        phase_scale=0.005,
        footprint_scale=1 / 16,
    )


class TestConsolidatedServer:
    @pytest.fixture(scope="class")
    def results(self):
        return {
            policy: consolidated(policy).run(**RUN)
            for policy in ("dmr-base", "mmm-ipc", "mmm-tp")
        }

    def test_headline_claim_mixed_mode_speeds_up_the_performance_vm(self, results):
        base = results["dmr-base"].vm("performance")
        ipc = results["mmm-ipc"].vm("performance")
        tp = results["mmm-tp"].vm("performance")
        cycles = results["dmr-base"].total_cycles
        # MMM-IPC improves per-thread IPC; MMM-TP improves throughput further.
        assert ipc.average_user_ipc(cycles) > base.average_user_ipc(cycles)
        assert tp.throughput(cycles) > ipc.throughput(cycles) > base.throughput(cycles)

    def test_overall_system_throughput_improves(self, results):
        assert (
            results["mmm-tp"].overall_throughput()
            > results["dmr-base"].overall_throughput()
        )

    def test_reliable_vm_keeps_most_of_its_performance(self, results):
        cycles = results["dmr-base"].total_cycles
        base = results["dmr-base"].vm("reliable").average_user_ipc(cycles)
        tp = results["mmm-tp"].vm("reliable").average_user_ipc(cycles)
        assert tp > 0.6 * base

    def test_mmm_tp_exposes_more_performance_vcpus(self, results):
        assert (
            results["mmm-tp"].vm("performance").num_vcpus
            > results["dmr-base"].vm("performance").num_vcpus
        )

    def test_no_silent_corruption_anywhere(self, results):
        for result in results.values():
            assert result.silent_corruptions() == 0


class TestFaultTolerantMixedMode:
    def test_faulty_performance_vm_cannot_corrupt_reliable_state(self):
        system = MixedModeMulticore.consolidated_server(
            reliable_workload="oltp",
            performance_workload="apache",
            policy="mmm-tp",
            reliable_vcpus=4,
            config=CONFIG,
            phase_scale=0.005,
            footprint_scale=1 / 16,
            fault_rates=FaultRates(store_address=0.05, privileged_register=0.2),
            seed=5,
        )
        result = system.run(**RUN)
        injector = system.machine.fault_injector
        assert injector is not None and injector.injected_fault_count > 0
        assert result.violation_counts.get("PAB_BLOCKED", 0) > 0
        assert result.silent_corruptions() == 0

    def test_campaign_shows_mmm_matches_dmr_coverage(self):
        campaign = FaultInjectionCampaign(config=CONFIG, seed=3)
        reports = {r.configuration: r for r in campaign.run(trials_per_site=8)}
        assert reports["mmm"].coverage == reports["always-dmr"].coverage == 1.0
        assert reports["naive-mode-switch"].coverage < 1.0


class TestSingleOsDesktop:
    def test_single_os_mixed_mode_switches_on_syscalls(self):
        system = MixedModeMulticore.single_os_desktop(
            reliable_workload="oltp",
            performance_workload="apache",
            vcpus_per_application=2,
            config=CONFIG,
            phase_scale=0.004,
            footprint_scale=1 / 16,
        )
        result = system.run(total_cycles=24_000, warmup_cycles=4_000)
        performance = result.vm("performance-app")
        assert sum(v.mode_switches for v in performance.vcpus) > 0
        assert performance.user_instructions > 0
        assert result.vm("reliable-app").user_instructions > 0


class TestCustomMachines:
    def test_three_vm_machine_with_explicit_specs(self):
        specs = [
            VmSpec("gold", "oltp", 2, ReliabilityMode.RELIABLE, phase_scale=0.005,
                   footprint_scale=1 / 16),
            VmSpec("silver", "pgbench", 2, ReliabilityMode.RELIABLE, phase_scale=0.005,
                   footprint_scale=1 / 16),
            VmSpec("economy", "apache", 4, ReliabilityMode.PERFORMANCE, phase_scale=0.005,
                   footprint_scale=1 / 16),
        ]
        system = MixedModeMulticore(vm_specs=specs, policy=policy_by_name("mmm-tp"), config=CONFIG)
        result = system.run(total_cycles=18_000, warmup_cycles=6_000)
        assert {vm.name for vm in result.vm_results} == {"gold", "silver", "economy"}
        assert all(vm.user_instructions > 0 for vm in result.vm_results)

    def test_explicit_simulation_options(self):
        system = consolidated("mmm-tp", seed=2)
        options = SimulationOptions(
            total_cycles=8_000, warmup_cycles=2_000, transition_cost_scale=0.002,
        )
        result = system.simulator(options).run()
        assert result.total_cycles == 8_000
