"""Exact-parity tests for the phase-blocked ``run_quantum`` hot path.

``CoreTimingModel.run_quantum`` is a phase-blocked rewrite of the original
per-instruction loop, which is retained as
``CoreTimingModel.run_quantum_reference`` -- the executable specification.
These tests build *two* machines from identical ``(config, vm_specs,
policy, seed)`` tuples (machine construction is fully deterministic), drive
one through the fast path and one through the reference path with the
same arguments, and require bit-identical results -- cycle count, user and
OS instruction counts, stop reason -- and identical machines afterwards:
the whole memory hierarchy (every cache line, LRU clock, directory entry
and counter), every TLB and PAB entry with its LRU stamp, every event in
the violation log, and the workload's stream position (the states of its
two random streams and its phase position).  Besides fixed cases, one
hypothesis test draws the machine and the quantum's arguments.

Bit-identity (not tolerance) is the contract: the fast loop performs
its float additions on the cycle accumulator in the same order as the
reference, draws from each random stream in the same order, and makes the
same hierarchy accesses in the same order.
"""

from __future__ import annotations

from typing import Optional, Sequence

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config.presets import paper_system_config
from repro.core.machine import MixedModeMachine, VmSpec
from repro.cpu.timing import CoreAssignment, ExecutionMode
from repro.faults.injector import FaultRates
from repro.isa.fingerprints import FingerprintUnit
from repro.protection.violations import ViolationKind
from repro.virt.vcpu import ReliabilityMode
from repro.workloads.profiles import PAPER_WORKLOAD_NAMES
from tests.conftest import hierarchy_state


def _build_machine(
    seed: int,
    fault_rates: Optional[FaultRates] = None,
    workloads: Sequence[str] = ("oltp", "apache"),
    phase_scale: float = 0.02,
    footprint_scale: float = 1.0,
):
    """A machine of one reliable VM and, with two workloads, a performance VM.

    A one-VM machine runs its OS phases at ``HYPERVISOR`` privilege (the
    single-OS shape), a two-VM machine at ``GUEST_OS``.
    """
    config = paper_system_config().validate()
    specs = [
        VmSpec(
            name="reliable" if index == 0 else "performance",
            workload=workload,
            num_vcpus=2,
            reliability=(
                ReliabilityMode.RELIABLE if index == 0 else ReliabilityMode.PERFORMANCE
            ),
            phase_scale=phase_scale,
            footprint_scale=footprint_scale,
        )
        for index, workload in enumerate(workloads)
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
    """Where the stream stands: both random streams and the phase position."""
    return (
        workload._rng.raw.getstate(),
        workload.address_model._r01.__self__.getstate(),
        workload._remaining_in_phase,
        workload._in_os_phase,
    )


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


def _compare_quanta(seed, *, mode, vcpu_index, quanta, machine=None, warm=False, **kwargs):
    """Run ``quanta`` consecutive quanta through both paths and compare.

    ``machine`` holds ``_build_machine``'s keyword arguments; ``warm`` first
    warms the VCPU's working set into its cores' caches, as a simulation
    does.  Returns the machine the batched path ran on.
    """
    fast = _build_machine(seed, **(machine or {}))
    slow = _build_machine(seed, **(machine or {}))
    if warm:
        for built in (fast, slow):
            assignment = _assignment(built, mode)
            built.hierarchy.warm(
                assignment.primary_core,
                built.vcpus[vcpu_index].workload.address_model.warm_addresses(),
                secondary_core=assignment.secondary_core,
            )
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
                          quanta=3, cycle_budget=20_000, machine=dict(fault_rates=rates))
    assert dmr.violation_log.count(ViolationKind.DMR_DETECTED) > 0
    performance = _compare_quanta(2, mode=ExecutionMode.PERFORMANCE, vcpu_index=2,
                                  quanta=3, cycle_budget=20_000,
                                  machine=dict(fault_rates=rates))
    assert performance.violation_log.count(ViolationKind.PAB_BLOCKED) > 0


#: Fault rates high enough that a few thousand instructions see faults.
FUZZ_FAULTS = FaultRates(execution_result=0.01, store_address=0.05)


def _decade(lows):
    """A value between one of ``lows`` and ten times it.

    Hypothesis draws the early choices of ``sampled_from`` most often, so
    ``lows`` lists the decade to favour first.
    """
    return st.sampled_from(lows).flatmap(
        lambda low: st.floats(min_value=low, max_value=10 * low)
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    workloads=st.lists(st.sampled_from(PAPER_WORKLOAD_NAMES), min_size=1, max_size=2),
    seed=st.integers(min_value=0, max_value=2**16),
    # Mean phases from a few instructions (1e-5 of pgbench's 520,000-instruction
    # user phase) up to thousands.
    phase_scale=_decade((1e-2, 1e-3, 1e-4, 1e-5)),
    # Below about 0.03 a user draw's cold window clips onto its hot one.
    footprint_scale=_decade((0.1, 0.01, 0.001)),
    mode=st.sampled_from(list(ExecutionMode)),
    faulty=st.booleans(),
    vcpu=st.integers(min_value=0, max_value=3),
    warm=st.booleans(),
    # From a single instruction to tens of thousands (on warm caches).
    cycle_budget=_decade((10_000, 1_000, 100, 10, 1)).map(int),
    quanta=st.integers(min_value=2, max_value=3),
    stop_on_os_entry=st.booleans(),
    stop_on_os_exit=st.booleans(),
    active_cores=st.none() | st.integers(min_value=1, max_value=16),
)
# A one-VM machine (hypervisor-privilege OS phases) whose user draws have no
# cold window, under a firing fault hook; and a two-VM machine whose
# performance VM's kernel draws have no cold window, stopping at OS exits.
@example(
    workloads=["pgoltp"], seed=3, phase_scale=1e-4, footprint_scale=0.01,
    mode=ExecutionMode.DMR, faulty=True, vcpu=1, warm=True, cycle_budget=6_000, quanta=3,
    stop_on_os_entry=False, stop_on_os_exit=False, active_cores=None,
)
@example(
    workloads=["pmake", "zeus"], seed=9, phase_scale=1e-3, footprint_scale=1.0,
    mode=ExecutionMode.PERFORMANCE, faulty=False, vcpu=3, warm=True, cycle_budget=8_000,
    quanta=3, stop_on_os_entry=False, stop_on_os_exit=True, active_cores=12,
)
def test_parity_on_fuzzed_machines(
    workloads, seed, phase_scale, footprint_scale, mode, faulty, vcpu, warm,
    cycle_budget, quanta, stop_on_os_entry, stop_on_os_exit, active_cores,
):
    """Both loops agree on any profile, phase length, footprint, machine
    shape, mode, fault hook, budget and stop condition."""
    _compare_quanta(
        seed,
        mode=mode,
        vcpu_index=vcpu % (2 * len(workloads)),
        quanta=quanta,
        warm=warm,
        machine=dict(
            fault_rates=FUZZ_FAULTS if faulty else None,
            workloads=workloads,
            phase_scale=phase_scale,
            footprint_scale=footprint_scale,
        ),
        cycle_budget=cycle_budget,
        stop_on_os_entry=stop_on_os_entry,
        stop_on_os_exit=stop_on_os_exit,
        active_cores=active_cores,
    )


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
