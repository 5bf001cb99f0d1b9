"""Exact-parity tests for the batched ``run_quantum`` hot path.

``CoreTimingModel.run_quantum`` is a batched rewrite of the original
per-instruction loop, which is retained as
``CoreTimingModel.run_quantum_reference`` -- the executable specification.
These tests build *two* machines from identical ``(config, vm_specs,
policy, seed)`` tuples (machine construction is fully deterministic), drive
one through the batched path and one through the reference path with the
same arguments, and require bit-identical results -- cycle count, user and
OS instruction counts, stop reason -- and identical machines afterwards:
the whole memory hierarchy (every cache line, LRU clock, directory entry
and counter), every TLB and PAB entry with its LRU stamp, every event in
the violation log, and the workload's stream position.

Bit-identity (not tolerance) is the contract: the batched loop performs
its float additions on the cycle accumulator in the same order as the
reference, draws from the shared RNG in the same order, and makes the same
hierarchy accesses in the same order.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.config.presets import paper_system_config
from repro.core.machine import MixedModeMachine, VmSpec
from repro.cpu.timing import CoreAssignment, ExecutionMode
from repro.faults.injector import FaultRates
from repro.isa.fingerprints import FingerprintUnit
from repro.protection.violations import ViolationKind
from repro.virt.vcpu import ReliabilityMode
from tests.conftest import hierarchy_state


def _build_machine(seed: int, fault_rates: Optional[FaultRates] = None):
    config = paper_system_config().validate()
    specs = [
        VmSpec(
            name="reliable",
            workload="oltp",
            num_vcpus=2,
            reliability=ReliabilityMode.RELIABLE,
            phase_scale=0.02,
        ),
        VmSpec(
            name="performance",
            workload="apache",
            num_vcpus=2,
            reliability=ReliabilityMode.PERFORMANCE,
            phase_scale=0.02,
        ),
    ]
    return MixedModeMachine(
        config=config,
        vm_specs=specs,
        policy="mmm-tp",
        seed=seed,
        fault_rates=fault_rates,
    )


def _assignment(machine, mode: ExecutionMode) -> CoreAssignment:
    if mode is ExecutionMode.DMR:
        return CoreAssignment(
            mode=mode,
            primary_core=0,
            secondary_core=1,
            reunion_pair=machine.pair_factory(0, 1),
        )
    return CoreAssignment(mode=mode, primary_core=0)


def _run(machine, method_name: str, *, mode, vcpu_index, **kwargs):
    vcpu = machine.vcpus[vcpu_index]
    method = getattr(machine.timing_model, method_name)
    return method(
        workload=vcpu.workload,
        assignment=_assignment(machine, mode),
        vcpu_id=vcpu.vcpu_id,
        **kwargs,
    )


def _stream_position(workload):
    return (workload._seq, workload._remaining_in_phase, workload._in_os_phase)


def _assert_identical(fast, slow, batched, reference):
    """Equal quantum results, and two machines left in the same state."""
    assert batched == reference
    assert hierarchy_state(fast.hierarchy) == hierarchy_state(slow.hierarchy)
    for fast_buffer, slow_buffer in zip(fast.tlbs + fast.pabs, slow.tlbs + slow.pabs):
        assert fast_buffer._entries == slow_buffer._entries
        assert fast_buffer._touch == slow_buffer._touch
    assert fast.violation_log.events == slow.violation_log.events
    for fast_vcpu, slow_vcpu in zip(fast.vcpus.values(), slow.vcpus.values()):
        assert _stream_position(fast_vcpu.workload) == _stream_position(slow_vcpu.workload)


def _compare_quanta(seed, *, mode, vcpu_index, quanta, fault_rates=None, **kwargs):
    """Run ``quanta`` consecutive quanta through both paths and compare.

    Returns the machine the batched path ran on.
    """
    fast = _build_machine(seed, fault_rates=fault_rates)
    slow = _build_machine(seed, fault_rates=fault_rates)
    for index in range(quanta):
        start = index * kwargs.get("cycle_budget", 0)
        batched = _run(
            fast, "run_quantum", mode=mode, vcpu_index=vcpu_index,
            start_cycle=start, **kwargs,
        )
        reference = _run(
            slow, "run_quantum_reference", mode=mode, vcpu_index=vcpu_index,
            start_cycle=start, **kwargs,
        )
        _assert_identical(fast, slow, batched, reference)
        assert batched.instructions > 0
    return fast


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_parity_baseline_mode(seed):
    _compare_quanta(seed, mode=ExecutionMode.BASELINE, vcpu_index=0,
                    quanta=3, cycle_budget=20_000)


@pytest.mark.parametrize("seed", [0, 3])
def test_parity_dmr_mode(seed):
    _compare_quanta(seed, mode=ExecutionMode.DMR, vcpu_index=0,
                    quanta=3, cycle_budget=20_000)


@pytest.mark.parametrize("seed", [0, 5])
def test_parity_performance_mode_with_pab(seed):
    # Performance-mode VCPUs (index 2/3) exercise the PAB check path.
    _compare_quanta(seed, mode=ExecutionMode.PERFORMANCE, vcpu_index=2,
                    quanta=3, cycle_budget=20_000)


def test_parity_with_contention():
    _compare_quanta(0, mode=ExecutionMode.PERFORMANCE, vcpu_index=2,
                    quanta=2, cycle_budget=15_000, active_cores=6)


def test_parity_stop_on_os_entry_and_exit():
    _compare_quanta(0, mode=ExecutionMode.BASELINE, vcpu_index=0,
                    quanta=4, cycle_budget=50_000, stop_on_os_entry=True)
    _compare_quanta(1, mode=ExecutionMode.BASELINE, vcpu_index=0,
                    quanta=4, cycle_budget=50_000, stop_on_os_exit=True)


def test_parity_with_fault_hook():
    # Execution faults frequent enough that DMR recovery logs detections, and
    # store-address faults frequent enough that the PAB blocks redirected
    # stores, so the violation logs compared after every quantum hold events.
    rates = FaultRates(execution_result=0.01, store_address=0.05)
    dmr = _compare_quanta(0, mode=ExecutionMode.DMR, vcpu_index=0,
                          quanta=3, cycle_budget=20_000, fault_rates=rates)
    assert dmr.violation_log.count(ViolationKind.DMR_DETECTED) > 0
    performance = _compare_quanta(2, mode=ExecutionMode.PERFORMANCE, vcpu_index=2,
                                  quanta=3, cycle_budget=20_000, fault_rates=rates)
    assert performance.violation_log.count(ViolationKind.PAB_BLOCKED) > 0


def test_parity_fault_recovery_observed():
    """The fault-hook parity run above is only meaningful if recoveries
    actually happened; assert the scenario exercises them."""
    rates = FaultRates(execution_result=0.01)
    machine = _build_machine(0, fault_rates=rates)
    _run(
        machine, "run_quantum", mode=ExecutionMode.DMR, vcpu_index=0,
        cycle_budget=60_000,
    )
    assert machine.violation_log.count(ViolationKind.DMR_DETECTED) > 0


class _SilentFaultHook:
    """A fault hook that is attached but never fires."""

    def perturb_store_address(self, core_id, mode, physical_address):
        return physical_address

    def corrupt_execution(self, core_id, mode):
        return False


def test_fault_free_dmr_quantum_makes_no_fingerprint_comparison(monkeypatch):
    """Without a fault hook both units would see the same tokens, so
    run_quantum compares none; the reference still compares every interval."""
    flushes = []
    flush = FingerprintUnit.flush

    def counting_flush(unit):
        flushes.append(unit)
        return flush(unit)

    monkeypatch.setattr(FingerprintUnit, "flush", counting_flush)
    machine = _build_machine(0)
    result = _run(machine, "run_quantum", mode=ExecutionMode.DMR, vcpu_index=0,
                  cycle_budget=20_000)
    assert result.instructions > 0
    assert flushes == []
    _run(machine, "run_quantum_reference", mode=ExecutionMode.DMR, vcpu_index=0,
         cycle_budget=20_000)
    assert flushes


@pytest.mark.parametrize("method_name", ["run_quantum", "run_quantum_reference"])
def test_a_fault_hook_that_never_fires_changes_nothing(method_name):
    """With a silent hook run_quantum drives the pair's fingerprint tokens;
    without one it skips them.  Both must leave the same results and state."""
    unhooked = _build_machine(0)
    hooked = _build_machine(0)
    hooked.timing_model.fault_hook = _SilentFaultHook()
    for index in range(3):
        results = [
            _run(machine, method_name, mode=ExecutionMode.DMR, vcpu_index=0,
                 cycle_budget=20_000, start_cycle=index * 20_000)
            for machine in (unhooked, hooked)
        ]
        _assert_identical(unhooked, hooked, *results)
        assert results[0].instructions > 0
