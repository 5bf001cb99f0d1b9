"""Tests for the simulation result containers."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.results import SimulationResult, VcpuResult, VmResult
from repro.virt.vcpu import ReliabilityMode


def make_vcpu_result(vcpu_id, vm_id, user=1000, total=1200, cycles=5000):
    return VcpuResult(
        vcpu_id=vcpu_id,
        vm_id=vm_id,
        user_instructions=user,
        os_instructions=total - user,
        total_instructions=total,
        active_cycles=cycles,
        mode_switches=0,
        mode_switch_cycles=0,
    )


def make_result():
    reliable = VmResult(
        vm_id=0, name="reliable", workload_name="oltp", reliability=ReliabilityMode.RELIABLE,
        vcpus=[make_vcpu_result(0, 0, user=1000), make_vcpu_result(1, 0, user=2000)],
    )
    performance = VmResult(
        vm_id=1, name="performance", workload_name="oltp",
        reliability=ReliabilityMode.PERFORMANCE,
        vcpus=[make_vcpu_result(2, 1, user=4000)],
    )
    return SimulationResult(
        policy_name="mmm-tp",
        total_cycles=10_000,
        warmup_cycles=1_000,
        vm_results=[reliable, performance],
        transitions=4,
        transition_cycles=100,
        violation_counts={"PAB_BLOCKED": 2},
    )


class TestVcpuAndVmResults:
    def test_vcpu_user_ipc(self):
        vcpu = make_vcpu_result(0, 0, user=500)
        assert vcpu.user_ipc(1000) == 0.5
        assert vcpu.user_ipc(0) == 0.0

    def test_vm_aggregates(self):
        result = make_result()
        reliable = result.vm("reliable")
        assert reliable.num_vcpus == 2
        assert reliable.user_instructions == 3000
        assert reliable.throughput(10_000) == pytest.approx(0.3)
        assert reliable.average_user_ipc(10_000) == pytest.approx(0.15)


class TestSimulationResult:
    def test_lookup_by_name_and_id(self):
        result = make_result()
        assert result.vm("performance").vm_id == 1
        assert result.vm_by_id(0).name == "reliable"
        with pytest.raises(SimulationError):
            result.vm("missing")
        with pytest.raises(SimulationError):
            result.vm_by_id(9)

    def test_machine_wide_metrics(self):
        result = make_result()
        assert result.total_user_instructions == 7000
        assert result.overall_throughput() == pytest.approx(0.7)
        # Average over three VCPUs: (0.1 + 0.2 + 0.4) / 3
        assert result.average_user_ipc() == pytest.approx(0.7 / 3)
        assert result.vm("reliable").throughput(result.total_cycles) == pytest.approx(0.3)
        assert result.vm("performance").throughput(result.total_cycles) == pytest.approx(0.4)

    def test_violations_and_to_dict(self):
        result = make_result()
        assert result.silent_corruptions() == 0
        summary = result.to_dict()
        assert summary["policy"] == "mmm-tp"
        assert summary["vms"]["performance"]["num_vcpus"] == 1
        assert summary["violations"] == {"PAB_BLOCKED": 2}
        assert summary["transitions"] == 4
