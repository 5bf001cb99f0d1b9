"""Tests for the Reunion DMR substrate (pairing and fingerprint checks)."""

from __future__ import annotations

import pytest

from repro.config.system import ReunionConfig
from repro.dmr.reunion import ReunionPair
from repro.errors import SchedulingError
from repro.isa.instructions import Instruction, InstructionClass


def make_pair(interval=4, recovery=100):
    return ReunionPair(
        vocal_core_id=0,
        mute_core_id=1,
        config=ReunionConfig(fingerprint_interval=interval, recovery_penalty_cycles=recovery),
    )


def make_instruction(result=0):
    return Instruction(iclass=InstructionClass.ALU, result=result)


class TestReunionPair:
    def test_pair_needs_two_distinct_cores(self):
        with pytest.raises(SchedulingError):
            ReunionPair(0, 0, ReunionConfig())

    def test_fault_free_intervals_match(self):
        pair = make_pair(interval=4)
        outcomes = [pair.observe_commit(make_instruction(seq)) for seq in range(8)]
        checks = [o for o in outcomes if o is not None]
        assert len(checks) == 2
        assert all(check.matched for check in checks)
        assert all(check.penalty_cycles == 0 for check in checks)

    def test_corrupted_instruction_is_detected_within_its_interval(self):
        pair = make_pair(interval=4, recovery=250)
        outcomes = []
        for seq in range(4):
            outcomes.append(
                pair.observe_commit(make_instruction(seq), mute_corrupted=(seq == 1))
            )
        final = outcomes[-1]
        assert [o for o in outcomes if o is not None] == [final]
        assert not final.matched
        assert final.penalty_cycles == 250

    def test_vocal_corruption_also_detected(self):
        pair = make_pair(interval=2)
        pair.observe_commit(make_instruction())
        outcome = pair.observe_commit(make_instruction(), vocal_corrupted=True)
        assert outcome is not None and not outcome.matched

    def test_synchronize_flushes_partial_interval(self):
        pair = make_pair(interval=16)
        pair.observe_commit(make_instruction(5))
        pair.observe_commit(make_instruction(6))
        outcome = pair.synchronize()
        assert outcome is not None
        assert outcome.matched
        assert pair.synchronize() is None

    def test_synchronize_detects_pending_corruption(self):
        pair = make_pair(interval=16)
        pair.observe_commit(make_instruction(), mute_corrupted=True)
        outcome = pair.synchronize()
        assert outcome is not None and not outcome.matched

    def test_cores_property(self):
        assert make_pair().cores == (0, 1)
