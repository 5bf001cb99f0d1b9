"""Tests for the fault injector, coverage reports and coverage campaigns."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.common.rng import DeterministicRng
from repro.config.presets import paper_system_config, small_system_config
from repro.core.mmm import MixedModeMulticore
from repro.cpu.timing import ExecutionMode
from repro.errors import FaultInjectionError
from repro.faults.campaign import (
    DEFAULT_CONFIGURATIONS,
    CampaignConfiguration,
    FaultInjectionCampaign,
)
from repro.faults.injector import FaultInjector, FaultRates
from repro.faults.outcomes import PROTECTED_OUTCOMES, CoverageReport, FaultOutcome
from repro.isa.registers import PRIVILEGED_REGISTERS
from repro.virt.vcpu import ReliabilityMode, VirtualCPU
from tests.conftest import make_workload


class TestRates:
    def test_any_active(self):
        assert not FaultRates().any_active()
        assert FaultRates(store_address=0.1).any_active()
        assert FaultRates(execution_result=0.1).any_active()
        assert FaultRates(privileged_register=0.1).any_active()


class TestInjector:
    def make(self, rates):
        return FaultInjector(
            rates=rates, rng=DeterministicRng(3), reliable_target_address=0x1000
        )

    def test_store_redirection_only_in_performance_mode(self):
        injector = self.make(FaultRates(store_address=1.0))
        assert (
            injector.perturb_store_address(0, ExecutionMode.PERFORMANCE, 0x5000) == 0x1000
        )
        assert injector.perturb_store_address(0, ExecutionMode.DMR, 0x5000) == 0x5000
        assert injector.stats.get("store_address_faults") == 1

    def test_zero_rate_never_redirects(self):
        injector = self.make(FaultRates(store_address=0.0))
        for _ in range(100):
            assert (
                injector.perturb_store_address(0, ExecutionMode.PERFORMANCE, 0x5000)
                == 0x5000
            )

    def test_execution_corruption_rate(self):
        injector = self.make(FaultRates(execution_result=0.5))
        hits = sum(
            injector.corrupt_execution(0, ExecutionMode.DMR) for _ in range(2000)
        )
        assert 800 < hits < 1200
        assert injector.injected_fault_count == hits

    def test_privileged_register_corruption(self, layout):
        injector = self.make(FaultRates(privileged_register=1.0))
        vcpu = VirtualCPU(
            vcpu_id=0, vm_id=0, workload=make_workload(layout),
            mode_register=ReliabilityMode.PERFORMANCE,
        )
        register = injector.maybe_corrupt_privileged_register(vcpu)
        assert register in PRIVILEGED_REGISTERS
        assert vcpu.arch_state.privileged[register] != 0

    def test_no_register_corruption_at_zero_rate(self, layout):
        injector = self.make(FaultRates(privileged_register=0.0))
        vcpu = VirtualCPU(
            vcpu_id=0, vm_id=0, workload=make_workload(layout),
            mode_register=ReliabilityMode.PERFORMANCE,
        )
        assert injector.maybe_corrupt_privileged_register(vcpu) is None

    def test_counts_cover_only_the_measured_window(self):
        # Every redirected store in performance mode is blocked by the PAB,
        # so the two counts agree when both cover the measured window.  With
        # a 12,000-cycle warmup, two of the run's five faults strike before
        # measurement begins.
        system = MixedModeMulticore.consolidated_server(
            reliable_workload="oltp",
            performance_workload="apache",
            policy="mmm-tp",
            reliable_vcpus=2,
            config=small_system_config(),
            seed=2,
            phase_scale=0.003,
            footprint_scale=0.1,
            fault_rates=FaultRates(store_address=0.02),
        )
        result = system.run(total_cycles=32_000, warmup_cycles=12_000)
        assert result.violation_counts == {"PAB_BLOCKED": 3}
        assert system.machine.fault_injector.stats.as_dict() == {
            "store_address_faults": 3
        }


class TestCoverageReport:
    def make_report(self, outcomes):
        report = CoverageReport(configuration="x")
        report.add(Counter(outcome.name for outcome in outcomes))
        return report

    def test_coverage_fraction(self):
        report = self.make_report(
            [FaultOutcome.DETECTED_DMR, FaultOutcome.SILENT_CORRUPTION, FaultOutcome.MASKED]
        )
        assert report.total == 3
        assert report.coverage == pytest.approx(2 / 3)
        assert report.silent_corruption_rate == pytest.approx(1 / 3)

    def test_empty_report_is_fully_covered(self):
        report = self.make_report([])
        assert report.coverage == 1.0
        assert report.silent_corruption_rate == 0.0

    def test_histogram_and_rows(self):
        report = self.make_report([FaultOutcome.DETECTED_PAB, FaultOutcome.DETECTED_PAB])
        assert report.outcome_histogram()[FaultOutcome.DETECTED_PAB] == 2
        rows = list(report.summary_rows())
        assert rows[0][0] == "DETECTED_PAB"
        assert rows[0][1] == 2


class TestCampaign:
    @pytest.fixture(scope="class")
    def reports(self):
        campaign = FaultInjectionCampaign(config=paper_system_config(), seed=1)
        return {r.configuration: r for r in campaign.run(trials_per_site=10)}

    def test_runs_every_default_configuration(self, reports):
        assert set(reports) == {c.name for c in DEFAULT_CONFIGURATIONS}

    def test_dmr_has_full_coverage(self, reports):
        assert reports["always-dmr"].coverage == 1.0
        assert reports["always-dmr"].silent_corruption_rate == 0.0

    def test_mmm_protects_reliable_state(self, reports):
        """The MMM's PAB + transition verification keep coverage complete."""
        assert reports["mmm"].coverage == 1.0
        assert reports["mmm"].count(FaultOutcome.DETECTED_PAB) > 0
        assert reports["mmm"].count(FaultOutcome.DETECTED_TRANSITION) > 0

    def test_naive_mode_switching_suffers_silent_corruption(self, reports):
        """Turning DMR off without the MMM mechanisms corrupts reliable state."""
        naive = reports["naive-mode-switch"]
        assert naive.count(FaultOutcome.SILENT_CORRUPTION) > 0
        assert naive.coverage < 1.0
        assert naive.coverage < reports["mmm"].coverage

    def test_invalid_trial_count_rejected(self):
        campaign = FaultInjectionCampaign(config=paper_system_config())
        with pytest.raises(FaultInjectionError):
            campaign.run(trials_per_site=0)

    def test_custom_configuration(self):
        campaign = FaultInjectionCampaign(config=paper_system_config(), seed=2)
        only_pab = CampaignConfiguration(name="pab-only", dmr_active=False, pab_active=True)
        (report,) = campaign.run(trials_per_site=5, configurations=[only_pab])
        assert report.configuration == "pab-only"
        assert report.count(FaultOutcome.DETECTED_PAB) > 0

    def test_protected_outcomes_cover_detections(self):
        assert FaultOutcome.DETECTED_DMR in PROTECTED_OUTCOMES
        assert FaultOutcome.SILENT_CORRUPTION not in PROTECTED_OUTCOMES
