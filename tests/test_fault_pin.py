"""End-to-end pin of the fault-injected execute path.

``tests/test_hotpath_parity.py`` holds ``run_quantum`` bit-exact to
``run_quantum_reference``, but an edit that both loops share (the fault
hook's calls, the PAB check, the fingerprint recovery) moves both sides
together and parity cannot see it.  This test runs one small consolidated
server with all three fault kinds injected and compares what the run
reports against figures recorded before the execute loops were last edited.
"""

from __future__ import annotations

from repro.config.presets import small_system_config
from repro.core.mmm import MixedModeMulticore
from repro.faults.injector import FaultRates


def test_fault_injected_consolidated_server_is_pinned():
    system = MixedModeMulticore.consolidated_server(
        reliable_workload="oltp",
        performance_workload="apache",
        policy="mmm-tp",
        reliable_vcpus=2,
        config=small_system_config(),
        seed=2,
        phase_scale=0.003,
        footprint_scale=0.1,
        fault_rates=FaultRates(
            execution_result=0.01, store_address=0.02, privileged_register=0.5
        ),
    )
    result = system.run(total_cycles=32_000, warmup_cycles=4_000)

    assert result.violation_counts == {"PAB_BLOCKED": 10, "DMR_DETECTED": 3}
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
