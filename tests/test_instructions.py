"""Tests for the abstract instruction records."""

from __future__ import annotations

from repro.isa.instructions import (
    Instruction,
    InstructionClass,
    PrivilegeLevel,
    SERIALIZING_CLASSES,
)


def make(iclass, privilege=PrivilegeLevel.USER, address=None):
    return Instruction(iclass=iclass, privilege=privilege, address=address)


def test_memory_classification():
    load = make(InstructionClass.LOAD, address=0x100)
    store = make(InstructionClass.STORE, address=0x200)
    alu = make(InstructionClass.ALU)
    assert load.is_load and load.is_memory and not load.is_store
    assert store.is_store and store.is_memory and not store.is_load
    assert not alu.is_memory


def test_serializing_classes_cover_privileged_and_traps():
    assert InstructionClass.SERIALIZING in SERIALIZING_CLASSES
    assert InstructionClass.PRIVILEGED in SERIALIZING_CLASSES
    assert InstructionClass.SYSCALL_ENTRY in SERIALIZING_CLASSES
    assert InstructionClass.SYSCALL_EXIT in SERIALIZING_CLASSES
    assert make(InstructionClass.SERIALIZING).is_serializing
    assert not make(InstructionClass.ALU).is_serializing


def test_privilege_helpers():
    user = make(InstructionClass.ALU, privilege=PrivilegeLevel.USER)
    guest = make(InstructionClass.ALU, privilege=PrivilegeLevel.GUEST_OS)
    hyper = make(InstructionClass.ALU, privilege=PrivilegeLevel.HYPERVISOR)
    assert user.is_user and not user.is_privileged_code
    assert guest.is_privileged_code and not guest.is_user
    assert hyper.is_privileged_code


def test_os_boundary_markers():
    entry = make(InstructionClass.SYSCALL_ENTRY, privilege=PrivilegeLevel.GUEST_OS)
    exit_ = make(InstructionClass.SYSCALL_EXIT, privilege=PrivilegeLevel.GUEST_OS)
    assert entry.enters_os and not entry.exits_os
    assert exit_.exits_os and not exit_.enters_os
    assert not make(InstructionClass.BRANCH).enters_os


def test_branch_flag():
    assert make(InstructionClass.BRANCH).is_branch
    assert not make(InstructionClass.LOAD, address=4).is_branch
