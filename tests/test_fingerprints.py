"""Tests for Reunion fingerprint generation."""

from __future__ import annotations

from repro.isa.fingerprints import FingerprintUnit, fingerprint_of
from repro.isa.instructions import Instruction, InstructionClass


def make_instruction(result=0, address=None, iclass=InstructionClass.ALU):
    return Instruction(iclass=iclass, result=result, address=address)


def test_fingerprint_of_is_deterministic_and_value_sensitive():
    assert fingerprint_of([1, 2, 3]) == fingerprint_of([1, 2, 3])
    assert fingerprint_of([1, 2, 3]) != fingerprint_of([3, 2, 1])
    assert fingerprint_of([]) == fingerprint_of([])


def test_unit_emits_every_interval():
    unit = FingerprintUnit(interval=4)
    emitted = []
    for seq in range(8):
        fingerprint = unit.observe(make_instruction(result=seq))
        if fingerprint is not None:
            emitted.append(seq)
    assert emitted == [3, 7]


def test_identical_streams_produce_identical_fingerprints():
    a = FingerprintUnit(interval=4)
    b = FingerprintUnit(interval=4)
    values_a = []
    values_b = []
    for seq in range(4):
        instruction = make_instruction(result=seq * 3)
        fa = a.observe(instruction)
        fb = b.observe(instruction)
        if fa:
            values_a.append(fa.value)
        if fb:
            values_b.append(fb.value)
    assert values_a == values_b
    assert len(values_a) == 1


def test_diverging_result_changes_fingerprint():
    a = FingerprintUnit(interval=2)
    b = FingerprintUnit(interval=2)
    a.observe(make_instruction(result=1))
    b.observe(make_instruction(result=1))
    fa = a.observe(make_instruction(result=2))
    fb = b.observe(make_instruction(result=2 ^ 1))
    assert fa.value != fb.value


def test_store_address_contributes_to_fingerprint():
    a = FingerprintUnit(interval=1)
    b = FingerprintUnit(interval=1)
    fa = a.observe(make_instruction(result=5, address=0x100, iclass=InstructionClass.STORE))
    fb = b.observe(make_instruction(result=5, address=0x200, iclass=InstructionClass.STORE))
    assert fa.value != fb.value


def test_load_address_does_not_contribute():
    # Only store addresses are architecturally visible outputs.
    a = FingerprintUnit(interval=1)
    b = FingerprintUnit(interval=1)
    fa = a.observe(make_instruction(result=5, address=0x100, iclass=InstructionClass.LOAD))
    fb = b.observe(make_instruction(result=5, address=0x200, iclass=InstructionClass.LOAD))
    assert fa.value == fb.value


def test_flush_emits_partial_interval_and_clears():
    unit = FingerprintUnit(interval=8)
    unit.observe(make_instruction())
    unit.observe(make_instruction())
    assert unit.pending_count == 2
    fingerprint = unit.flush()
    assert fingerprint is not None
    assert unit.pending_count == 0
    assert unit.flush() is None
