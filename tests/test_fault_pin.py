"""End-to-end pin of the fault-injected execute path.

``tests/test_hotpath_parity.py`` holds ``run_quantum`` bit-exact to
``run_quantum_reference``, but an edit that both loops share (the fault
hook's calls, the PAB check, the fingerprint recovery) moves both sides
together and parity cannot see it.  This test runs one small consolidated
server with all three fault kinds injected and compares what the run
reports against figures recorded when the loops last changed a result: the
quantum-end synchronisation and the logging of every fingerprint mismatch
raised ``DMR_DETECTED`` from 3 to 12 and left every other figure as it was.
"""

from __future__ import annotations

from repro.config.presets import small_system_config
from repro.core.mmm import MixedModeMulticore
from repro.cpu.timing import CoreTimingModel
from repro.dmr.reunion import ReunionPair
from repro.faults.injector import FaultRates
from repro.protection.violations import ViolationKind, ViolationLog


def _consolidated_server(fault_rates: FaultRates) -> MixedModeMulticore:
    return MixedModeMulticore.consolidated_server(
        reliable_workload="oltp",
        performance_workload="apache",
        policy="mmm-tp",
        reliable_vcpus=2,
        config=small_system_config(),
        seed=2,
        phase_scale=0.003,
        footprint_scale=0.1,
        fault_rates=fault_rates,
    )


def test_fault_injected_consolidated_server_is_pinned():
    system = _consolidated_server(
        FaultRates(execution_result=0.01, store_address=0.02, privileged_register=0.5)
    )
    result = system.run(total_cycles=32_000, warmup_cycles=4_000)

    assert result.violation_counts == {"PAB_BLOCKED": 10, "DMR_DETECTED": 12}
    assert result.transitions == 16
    assert result.transition_cycles == 123
    assert {
        vcpu.vcpu_id: (vcpu.user_instructions, vcpu.os_instructions)
        for vm in result.vm_results
        for vcpu in vm.vcpus
    } == {
        0: (353, 20),
        1: (541, 0),
        2: (345, 218),
        3: (851, 242),
        4: (128, 589),
        5: (644, 626),
    }
    # Every fault kind fired, so the pin covers each hook.
    assert system.machine.fault_injector.stats.as_dict() == {
        "execution_faults": 12,
        "privileged_register_faults": 7,
        "store_address_faults": 10,
    }


def test_every_dmr_comparison_is_made_and_every_mismatch_logged(monkeypatch):
    """No pair ends a quantum holding fingerprint tokens, and each
    mismatching comparison is logged as one ``DMR_DETECTED`` event."""
    mismatches = []
    detections = []
    held_tokens = []

    compare = ReunionPair._compare

    def counting_compare(pair, vocal_fp, mute_fp):
        outcome = compare(pair, vocal_fp, mute_fp)
        if not outcome.matched:
            mismatches.append(outcome)
        return outcome

    record = ViolationLog.record

    def counting_record(log, violation):
        if violation.kind is ViolationKind.DMR_DETECTED:
            detections.append(violation)
        record(log, violation)

    run_quantum = CoreTimingModel.run_quantum

    def checked_run_quantum(model, *args, **kwargs):
        result = run_quantum(model, *args, **kwargs)
        pair = kwargs["assignment"].reunion_pair
        if pair is not None:
            held_tokens.append(
                pair.vocal_unit.pending_count + pair.mute_unit.pending_count
            )
        return result

    monkeypatch.setattr(ReunionPair, "_compare", counting_compare)
    monkeypatch.setattr(ViolationLog, "record", counting_record)
    monkeypatch.setattr(CoreTimingModel, "run_quantum", checked_run_quantum)
    system = _consolidated_server(FaultRates(execution_result=0.05))
    system.run(total_cycles=32_000, warmup_cycles=4_000)

    assert held_tokens and set(held_tokens) == {0}
    assert system.machine.fault_injector.stats.get("execution_faults") > 0
    assert mismatches
    assert len(detections) == len(mismatches)
