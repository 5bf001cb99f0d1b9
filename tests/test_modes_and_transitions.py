"""Tests for the mode-transition engine.

The mode decision itself (which privilege levels run under DMR for each
reliability register) is pinned by ``tests/test_virt.py``.
"""

from __future__ import annotations

import pytest

from repro.core.transitions import TransitionFlavor
from repro.errors import TransitionError
from repro.protection.violations import ViolationKind


@pytest.fixture
def machine(small_machine):
    return small_machine


def reliable_vcpu(machine):
    return machine.vms[0].vcpus[0]


def performance_vcpus(machine):
    return machine.vms[1].vcpus


class TestTransitionEngine:
    def test_enter_and_leave_report_positive_costs(self, machine):
        engine = machine.transition_engine
        vcpu = reliable_vcpu(machine)
        enter = engine.enter_dmr(0, 1, vcpu, flavor=TransitionFlavor.MMM_TP)
        leave = engine.leave_dmr(0, 1, vcpu, flavor=TransitionFlavor.MMM_TP)
        assert enter.total_cycles > 0
        assert leave.total_cycles > 0
        assert enter.kind == "enter_dmr"
        assert leave.kind == "leave_dmr"

    def test_leave_tp_is_dominated_by_the_l2_flush(self, machine):
        engine = machine.transition_engine
        vcpu = reliable_vcpu(machine)
        leave = engine.leave_dmr(0, 1, vcpu, flavor=TransitionFlavor.MMM_TP)
        assert leave.flush_cycles >= machine.config.l2.num_lines

    def test_leave_tp_costs_more_than_enter_on_the_paper_machine(self, paper_config):
        """Table 1's asymmetry: the 8192-line L2 flush dominates Leave DMR."""
        from tests.conftest import make_small_machine

        machine = make_small_machine(paper_config, reliable_vcpus=1, performance_vcpus=2)
        engine = machine.transition_engine
        vcpu = reliable_vcpu(machine)
        # Warm the scratchpad slots so compulsory misses do not hide the shape.
        engine.enter_dmr(0, 1, vcpu, flavor=TransitionFlavor.MMM_TP)
        engine.leave_dmr(0, 1, vcpu, flavor=TransitionFlavor.MMM_TP)
        enter = engine.enter_dmr(0, 1, vcpu, flavor=TransitionFlavor.MMM_TP)
        leave = engine.leave_dmr(0, 1, vcpu, flavor=TransitionFlavor.MMM_TP)
        assert leave.flush_cycles >= 8192
        assert leave.flush_cycles > leave.save_cycles
        assert leave.total_cycles > enter.total_cycles
        # The paper reports ~2.2-2.4k for Enter and ~10k for Leave.
        assert 1_000 <= enter.total_cycles <= 5_000
        assert 8_500 <= leave.total_cycles <= 16_000

    def test_ipc_flavor_skips_the_flush_and_is_cheaper(self, machine):
        engine = machine.transition_engine
        vcpu = reliable_vcpu(machine)
        tp = engine.leave_dmr(0, 1, vcpu, flavor=TransitionFlavor.MMM_TP)
        ipc = engine.leave_dmr(2, 3, vcpu, flavor=TransitionFlavor.MMM_IPC)
        assert ipc.flush_cycles == 0
        assert ipc.total_cycles < tp.total_cycles

    def test_context_switch_transitions_move_outgoing_and_incoming_state(self, machine):
        engine = machine.transition_engine
        vcpu = reliable_vcpu(machine)
        outgoing = performance_vcpus(machine)
        enter = engine.enter_dmr(
            0, 1, vcpu,
            outgoing_vocal_vcpu=outgoing[0], outgoing_mute_vcpu=outgoing[1],
            flavor=TransitionFlavor.MMM_TP,
        )
        assert enter.save_cycles > 0
        assert enter.load_cycles > 0
        leave = engine.leave_dmr(
            0, 1, vcpu,
            incoming_vocal_vcpu=outgoing[0], incoming_mute_vcpu=outgoing[1],
            flavor=TransitionFlavor.MMM_TP,
        )
        assert leave.load_cycles > 0

    def test_same_core_pair_rejected(self, machine):
        engine = machine.transition_engine
        vcpu = reliable_vcpu(machine)
        with pytest.raises(TransitionError):
            engine.enter_dmr(1, 1, vcpu)
        with pytest.raises(TransitionError):
            engine.leave_dmr(1, 1, vcpu)

    def test_verification_catches_privileged_corruption(self, machine):
        engine = machine.transition_engine
        vcpu = reliable_vcpu(machine)
        # Establish the redundant copy, corrupt a privileged register while
        # "in performance mode", then re-enter DMR.
        engine.leave_dmr(0, 1, vcpu, flavor=TransitionFlavor.MMM_IPC)
        vcpu.arch_state.privileged["tba"] ^= 0x80
        enter = engine.enter_dmr(0, 1, vcpu, flavor=TransitionFlavor.MMM_IPC)
        assert enter.verify_failed
        assert engine.violation_log.count(ViolationKind.TRANSITION_VERIFY_FAILED) == 1
        # Recovery restored the register from the redundant copy.
        assert vcpu.arch_state.privileged["tba"] == 0

    def test_verification_passes_without_corruption(self, machine):
        engine = machine.transition_engine
        vcpu = reliable_vcpu(machine)
        engine.leave_dmr(0, 1, vcpu, flavor=TransitionFlavor.MMM_IPC)
        enter = engine.enter_dmr(0, 1, vcpu, flavor=TransitionFlavor.MMM_IPC)
        assert not enter.verify_failed

    def test_average_accounting(self, machine):
        engine = machine.transition_engine
        vcpu = reliable_vcpu(machine)
        assert engine.average_enter_cycles() == 0.0
        assert engine.average_leave_cycles() == 0.0
        engine.enter_dmr(0, 1, vcpu)
        engine.leave_dmr(0, 1, vcpu)
        assert engine.average_enter_cycles() > 0
        assert engine.average_leave_cycles() > 0
