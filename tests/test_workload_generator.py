"""Tests for the synthetic per-VCPU instruction stream generator."""

from __future__ import annotations

import pytest

from repro.common.addresses import AddressSpaceLayout
from repro.errors import WorkloadError
from repro.isa.instructions import InstructionClass, PrivilegeLevel
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import get_profile


@pytest.fixture
def layout():
    return AddressSpaceLayout(vm_memory_bytes=2 * 1024 * 1024, num_vms=1)


def make_workload(layout, name="apache", phase_scale=0.002, seed=11, **kwargs):
    return SyntheticWorkload(
        profile=get_profile(name),
        layout=layout,
        vm_id=0,
        vcpu_index=0,
        num_vcpus=2,
        seed=seed,
        phase_scale=phase_scale,
        **kwargs,
    )


def test_same_seed_gives_identical_streams(layout):
    a = make_workload(layout, seed=5)
    b = make_workload(layout, seed=5)
    for _ in range(300):
        left, right = a.next_instruction(), b.next_instruction()
        assert (left.iclass, left.address, left.privilege, left.result) == (
            right.iclass, right.address, right.privilege, right.result
        )


def test_different_vcpus_get_different_streams(layout):
    a = SyntheticWorkload(get_profile("oltp"), layout, vcpu_index=0, num_vcpus=2, seed=1)
    b = SyntheticWorkload(get_profile("oltp"), layout, vcpu_index=1, num_vcpus=2, seed=1)
    sample_a = [a.next_instruction() for _ in range(200)]
    sample_b = [b.next_instruction() for _ in range(200)]
    addresses_a = [i.address for i in sample_a if i.address is not None]
    addresses_b = [i.address for i in sample_b if i.address is not None]
    assert addresses_a != addresses_b


def test_phases_alternate_between_user_and_os(layout):
    workload = make_workload(layout, phase_scale=0.001)
    seen_entry = seen_exit = False
    previous_privilege = PrivilegeLevel.USER
    sample = [workload.next_instruction() for _ in range(3000)]
    for instruction in sample:
        if instruction.enters_os:
            seen_entry = True
            assert previous_privilege is PrivilegeLevel.USER
        if instruction.exits_os:
            seen_exit = True
        if not instruction.is_serializing:
            previous_privilege = instruction.privilege
    assert seen_entry and seen_exit
    # Entries and exits alternate, starting with an entry.
    entries = sum(1 for i in sample if i.enters_os)
    exits = sum(1 for i in sample if i.exits_os)
    assert entries - exits in (0, 1)


def test_memory_instructions_always_carry_addresses(layout):
    workload = make_workload(layout)
    for _ in range(1000):
        instruction = workload.next_instruction()
        if instruction.is_memory:
            assert instruction.address is not None
        else:
            assert instruction.address is None


def test_instruction_mix_roughly_matches_profile(layout):
    workload = make_workload(layout, name="oltp", phase_scale=0.01)
    profile = get_profile("oltp")
    sample = [workload.next_instruction() for _ in range(8000)]
    user_sample = [i for i in sample if i.is_user]
    loads = sum(1 for i in user_sample if i.is_load) / len(user_sample)
    stores = sum(1 for i in user_sample if i.is_store) / len(user_sample)
    assert abs(loads - profile.user_load_fraction) < 0.05
    assert abs(stores - profile.user_store_fraction) < 0.04


def test_os_phase_uses_requested_privilege(layout):
    workload = make_workload(layout, os_privilege=PrivilegeLevel.HYPERVISOR, phase_scale=0.001)
    sample = [workload.next_instruction() for _ in range(3000)]
    privileges = {i.privilege for i in sample if not i.is_user}
    assert privileges == {PrivilegeLevel.HYPERVISOR}


def test_user_os_instruction_balance_tracks_profile(layout):
    workload = make_workload(layout, name="zeus", phase_scale=0.002)
    # The phase bodies, without the SYSCALL instructions between them.
    sample = [workload.next_instruction() for _ in range(20000)]
    body = [i for i in sample if not (i.enters_os or i.exits_os)]
    profile = get_profile("zeus")
    expected_os_share = profile.os_intensity
    observed = sum(1 for i in body if not i.is_user) / len(body)
    assert abs(observed - expected_os_share) < 0.25


def test_current_privilege_reflects_phase(layout):
    workload = make_workload(layout, phase_scale=0.001)
    assert workload.current_privilege is PrivilegeLevel.USER
    while not workload.in_os_phase:
        workload.next_instruction()
    assert workload.current_privilege is PrivilegeLevel.GUEST_OS


def test_user_os_privilege_is_rejected(layout):
    with pytest.raises(WorkloadError):
        make_workload(layout, os_privilege=PrivilegeLevel.USER)


def test_syscall_boundaries_are_serializing(layout):
    workload = make_workload(layout, phase_scale=0.001)
    boundaries = [
        i for i in (workload.next_instruction() for _ in range(5000))
        if i.iclass in (InstructionClass.SYSCALL_ENTRY, InstructionClass.SYSCALL_EXIT)
    ]
    assert boundaries
    assert all(b.is_serializing for b in boundaries)
