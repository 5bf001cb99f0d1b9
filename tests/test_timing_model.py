"""Tests for the analytic core timing model."""

from __future__ import annotations

import pytest

from repro.common.addresses import AddressSpaceLayout
from repro.cpu.timing import CoreAssignment, CoreTimingModel, ExecutionMode, StopReason
from repro.errors import SimulationError
from repro.mem.hierarchy import MemoryHierarchy
from repro.protection.pab import ProtectionAssistanceBuffer
from repro.protection.pat import ProtectionAssistanceTable
from repro.protection.violations import ViolationKind, ViolationLog
from repro.tlb.page_table import PageFlags, PageTable
from repro.tlb.tlb import TranslationLookasideBuffer
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import get_profile


def build_stack(config, mark_reliable=False):
    """Build hierarchy, TLBs, PABs, and a timing model on ``config``."""
    layout = AddressSpaceLayout(vm_memory_bytes=1024 * 1024, num_vms=1)
    page_table = PageTable(page_size=config.pab.page_bytes)
    page_table.map_region(
        layout.vm_region(0), PageFlags.USER_READ | PageFlags.USER_WRITE, domain=0
    )
    pat = ProtectionAssistanceTable(
        physical_memory_bytes=layout.total_bytes, page_size=config.pab.page_bytes
    )
    if mark_reliable:
        pat.mark_reliable_region(layout.user_region(0))
    hierarchy = MemoryHierarchy(config)
    pabs = [
        ProtectionAssistanceBuffer(config.pab, pat, core_id, hierarchy)
        for core_id in range(config.num_cores)
    ]
    tlbs = [
        TranslationLookasideBuffer(config.tlb, page_table) for _ in range(config.num_cores)
    ]
    log = ViolationLog()
    model = CoreTimingModel(
        config=config, hierarchy=hierarchy, tlbs=tlbs, pabs=pabs, violation_log=log
    )
    return layout, model, log


def make_workload(layout, name="oltp", seed=5, phase_scale=0.003):
    return SyntheticWorkload(
        profile=get_profile(name), layout=layout, vm_id=0, vcpu_index=0,
        num_vcpus=2, seed=seed, phase_scale=phase_scale,
    )


def run(model, workload, mode, budget=3000, **kwargs):
    if mode is ExecutionMode.DMR:
        from repro.dmr.reunion import ReunionPair

        pair = ReunionPair(0, 1, model.config.reunion)
        assignment = CoreAssignment(mode=mode, primary_core=0, secondary_core=1, reunion_pair=pair)
    else:
        assignment = CoreAssignment(mode=mode, primary_core=0)
    return model.run_quantum(workload, assignment, cycle_budget=budget, **kwargs)


class TestBasicExecution:
    def test_budget_is_respected(self, small_config):
        layout, model, _ = build_stack(small_config)
        result = run(model, make_workload(layout), ExecutionMode.BASELINE, budget=2000)
        assert result.stop_reason is StopReason.BUDGET_EXHAUSTED
        assert 2000 <= result.cycles <= 2600  # may overshoot by one instruction's stalls
        assert result.instructions > 0
        assert result.user_instructions + result.os_instructions == result.instructions

    def test_deterministic_given_seed(self, small_config):
        layout, model_a, _ = build_stack(small_config)
        _, model_b, _ = build_stack(small_config)
        a = run(model_a, make_workload(layout, seed=3), ExecutionMode.BASELINE)
        b = run(model_b, make_workload(layout, seed=3), ExecutionMode.BASELINE)
        assert a.cycles == b.cycles
        assert a.instructions == b.instructions

    def test_invalid_budget_rejected(self, small_config):
        layout, model, _ = build_stack(small_config)
        with pytest.raises(SimulationError):
            run(model, make_workload(layout), ExecutionMode.BASELINE, budget=0)

    def test_ipc_properties(self, small_config):
        layout, model, _ = build_stack(small_config)
        result = run(model, make_workload(layout), ExecutionMode.BASELINE)
        user_ipc = result.user_instructions / result.cycles
        total_ipc = result.instructions / result.cycles
        assert 0 < user_ipc <= total_ipc <= small_config.core.issue_width


class TestDmrExecution:
    def test_dmr_is_slower_than_baseline(self, small_config):
        # Equal cycle budgets: DMR commits fewer instructions.
        layout, model, _ = build_stack(small_config)
        baseline = run(model, make_workload(layout, seed=7), ExecutionMode.BASELINE,
                       budget=300_000)
        _, model2, _ = build_stack(small_config)
        dmr = run(model2, make_workload(layout, seed=7), ExecutionMode.DMR,
                  budget=300_000)
        assert baseline.stop_reason is StopReason.BUDGET_EXHAUSTED
        assert dmr.stop_reason is StopReason.BUDGET_EXHAUSTED
        assert dmr.instructions < baseline.instructions

    def test_dmr_requires_two_cores(self):
        with pytest.raises(SimulationError):
            CoreAssignment(mode=ExecutionMode.DMR, primary_core=0)
        with pytest.raises(SimulationError):
            CoreAssignment(mode=ExecutionMode.DMR, primary_core=0, secondary_core=0)

    def test_non_dmr_must_not_name_secondary(self):
        with pytest.raises(SimulationError):
            CoreAssignment(mode=ExecutionMode.BASELINE, primary_core=0, secondary_core=1)

    def test_dmr_populates_mute_cache_incoherently(self, small_config):
        layout, model, _ = build_stack(small_config)
        run(model, make_workload(layout), ExecutionMode.DMR, budget=4000)
        mute_lines = model.hierarchy.l2[1].resident_lines()
        assert mute_lines
        assert any(not line.coherent for line in mute_lines)

    def test_contention_slows_offcore_accesses(self, small_config):
        # Equal cycle budgets: more active cores, fewer instructions.
        layout, model, _ = build_stack(small_config)
        few = run(model, make_workload(layout, seed=9), ExecutionMode.BASELINE,
                  budget=300_000, active_cores=1)
        _, model2, _ = build_stack(small_config)
        many = run(model2, make_workload(layout, seed=9), ExecutionMode.BASELINE,
                   budget=300_000, active_cores=small_config.num_cores)
        assert many.instructions < few.instructions


class TestStopConditions:
    def test_stop_on_os_entry_and_exit(self, small_config):
        layout, model, _ = build_stack(small_config)
        workload = make_workload(layout, name="apache", phase_scale=0.001)
        entry = run(model, workload, ExecutionMode.BASELINE, budget=10**7,
                    stop_on_os_entry=True)
        assert entry.stop_reason is StopReason.OS_ENTRY
        assert workload.in_os_phase
        exit_ = run(model, workload, ExecutionMode.BASELINE, budget=10**7,
                    stop_on_os_exit=True)
        assert exit_.stop_reason is StopReason.OS_EXIT
        assert not workload.in_os_phase


class TestPabIntegration:
    def test_performance_mode_checks_stores(self, small_config):
        # A checked store fills the PAB from the PAT.
        layout, model, log = build_stack(small_config)
        run(model, make_workload(layout), ExecutionMode.PERFORMANCE, budget=150_000)
        assert model.pabs[0].occupancy > 0
        assert log.count() == 0

    def test_baseline_mode_skips_the_pab(self, small_config):
        layout, model, _ = build_stack(small_config)
        run(model, make_workload(layout), ExecutionMode.BASELINE, budget=150_000)
        assert all(pab.occupancy == 0 for pab in model.pabs)

    def test_stores_to_reliable_pages_are_blocked_and_logged(self, small_config):
        layout, model, log = build_stack(small_config, mark_reliable=True)
        run(model, make_workload(layout), ExecutionMode.PERFORMANCE, budget=150_000)
        assert log.count(ViolationKind.PAB_BLOCKED) > 0
        assert log.count() == log.count(ViolationKind.PAB_BLOCKED)
        assert all(event.core_id == 0 and event.physical_address is not None
                   for event in log.events)
