"""Tests for the VCPU-to-core mapping policies."""

from __future__ import annotations

import pytest

from repro.core.policies import (
    AlwaysDmrPolicy,
    MmmIpcPolicy,
    MmmTpPolicy,
    NoDmrPolicy,
    available_policies,
    policy_by_name,
)
from repro.cpu.timing import ExecutionMode
from repro.errors import SchedulingError


def plan_for(machine, policy, vcpus):
    machine.allocator.reset()
    plan = policy.plan_quantum(vcpus, machine.allocator, machine.pair_factory)
    return plan.validate(machine.num_cores)


def all_vcpus(machine):
    return [machine.vcpus[i] for i in sorted(machine.vcpus)]


class TestRegistry:
    def test_known_policies(self):
        assert set(available_policies()) == {"no-dmr", "dmr-base", "mmm-ipc", "mmm-tp"}
        assert isinstance(policy_by_name("MMM-TP"), MmmTpPolicy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(SchedulingError):
            policy_by_name("triple-modular")

    def test_mixed_mode_flags(self):
        assert not NoDmrPolicy.mixed_mode
        assert not AlwaysDmrPolicy.mixed_mode
        assert MmmIpcPolicy.mixed_mode
        assert MmmTpPolicy.mixed_mode


class TestNoDmrPolicy(object):
    def test_each_vcpu_gets_one_core(self, small_machine):
        vcpus = all_vcpus(small_machine)[: small_machine.num_cores]
        plan = plan_for(small_machine, NoDmrPolicy(), vcpus)
        assert len(plan.placements) == len(vcpus)
        assert all(
            p.assignment.mode is ExecutionMode.BASELINE and p.assignment.secondary_core is None
            for p in plan.placements
        )

    def test_excess_vcpus_are_paused(self, small_machine):
        vcpus = all_vcpus(small_machine) * 3  # more VCPUs than cores
        plan = plan_for(small_machine, NoDmrPolicy(), vcpus)
        assert len(plan.placements) == small_machine.num_cores
        assert len(plan.paused_vcpu_ids) == len(vcpus) - small_machine.num_cores


class TestAlwaysDmrPolicy:
    def test_each_vcpu_gets_a_pair(self, small_machine):
        vcpus = all_vcpus(small_machine)[: small_machine.num_cores // 2]
        plan = plan_for(small_machine, AlwaysDmrPolicy(), vcpus)
        assert len(plan.placements) == len(vcpus)
        for placement in plan.placements:
            assignment = placement.assignment
            assert assignment.mode is ExecutionMode.DMR
            assert assignment.reunion_pair is not None
            assert assignment.secondary_core is not None
            assert assignment.primary_core != assignment.secondary_core

    def test_overcommit_pauses_vcpus(self, small_machine):
        vcpus = all_vcpus(small_machine)
        plan = plan_for(small_machine, AlwaysDmrPolicy(), vcpus)
        assert len(plan.placements) == small_machine.config.max_dmr_pairs
        assert len(plan.paused_vcpu_ids) == len(vcpus) - len(plan.placements)


class TestMmmIpcPolicy:
    def test_reliable_vcpus_run_dmr_performance_vcpus_idle_their_partner(self, small_machine):
        reliable_vm, performance_vm = small_machine.vms
        vcpus = [reliable_vm.vcpus[0], performance_vm.vcpus[0]]
        plan = plan_for(small_machine, MmmIpcPolicy(), vcpus)
        by_vcpu = {p.vcpu_id: p for p in plan.placements}
        reliable_placement = by_vcpu[reliable_vm.vcpus[0].vcpu_id]
        performance_placement = by_vcpu[performance_vm.vcpus[0].vcpu_id]
        assert reliable_placement.assignment.mode is ExecutionMode.DMR
        assert performance_placement.assignment.mode is ExecutionMode.PERFORMANCE
        # The redundant core stays reserved even though it idles.
        assert performance_placement.reserved_partner_core is not None
        assert plan.cores_in_use == 3  # 2 for the pair + 1 running performance

    def test_every_vcpu_consumes_a_full_pair_of_cores(self, small_machine):
        performance_vm = small_machine.vms[1]
        plan = plan_for(small_machine, MmmIpcPolicy(), performance_vm.vcpus[:2])
        occupied = {core for p in plan.placements for core in p.occupied_cores}
        assert len(occupied) == 4  # 2 VCPUs x (1 running + 1 reserved) on a 4-core chip


class TestMmmTpPolicy:
    def test_reliable_get_pairs_performance_get_singles(self, small_machine):
        reliable_vm, performance_vm = small_machine.vms
        vcpus = [reliable_vm.vcpus[0], *performance_vm.vcpus]
        plan = plan_for(small_machine, MmmTpPolicy(), vcpus)
        modes = {p.vcpu_id: p.assignment.mode for p in plan.placements}
        assert modes[reliable_vm.vcpus[0].vcpu_id] is ExecutionMode.DMR
        performance_modes = [
            modes[v.vcpu_id] for v in performance_vm.vcpus if v.vcpu_id in modes
        ]
        assert all(mode is ExecutionMode.PERFORMANCE for mode in performance_modes)

    def test_overcommit_uses_every_core_and_pauses_the_rest(self, small_config):
        from tests.conftest import make_small_machine

        machine = make_small_machine(small_config, performance_vcpus=6)
        vcpus = [machine.vms[0].vcpus[0], *machine.vms[1].vcpus]
        plan = plan_for(machine, MmmTpPolicy(), vcpus)
        assert plan.cores_in_use == machine.num_cores
        assert plan.paused_vcpu_ids  # some VCPUs could not be placed

    def test_reliable_vcpus_placed_before_performance(self, small_machine):
        reliable_vm, performance_vm = small_machine.vms
        # Present performance VCPUs first; the policy must still give the
        # reliable VCPU its pair.
        vcpus = [*performance_vm.vcpus, reliable_vm.vcpus[0]]
        plan = plan_for(small_machine, MmmTpPolicy(), vcpus)
        modes = {p.vcpu_id: p.assignment.mode for p in plan.placements}
        assert modes[reliable_vm.vcpus[0].vcpu_id] is ExecutionMode.DMR
