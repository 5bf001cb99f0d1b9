"""Exact-parity tests for the data-address draw.

``AddressStreamModel.next_address`` inlines the ``DeterministicRng`` helper
chain -- ``chance``, then ``sample_address`` for a shared access or
``hot_cold_address`` for a private one -- with the span draw written as the
``getrandbits`` rejection loop.  The chain is the executable specification.
``run_quantum_reference`` pulls its addresses through ``next_address``, and
``run_quantum`` inlines a copy of the draw, which the hot-path parity tests
(``tests/test_hotpath_parity.py``) pin to the reference loop; so these tests
hold both to the chain.  They drive a model and a twin
``DeterministicRng`` from one seed, the model through ``next_address`` and
the twin through the chain over the model's windows, and require every
``(address, is_shared)`` to match, for all six profiles, user and OS
privilege, every VCPU of 1-, 2- and 8-VCPU VMs and three footprint scales.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import replace

import pytest

from repro.common.addresses import AddressSpaceLayout
from repro.common.rng import DeterministicRng
from repro.errors import WorkloadError
from repro.isa.instructions import PrivilegeLevel
from repro.workloads.address_stream import AddressStreamModel
from repro.workloads.profiles import PAPER_WORKLOAD_NAMES, get_profile

PRIVILEGES = (PrivilegeLevel.USER, PrivilegeLevel.GUEST_OS, PrivilegeLevel.HYPERVISOR)
VCPU_COUNTS = (1, 2, 8)
FOOTPRINT_SCALES = (1.0, 0.25, 0.05)
#: Roomy: each window keeps its profile size.  Tight: windows are clipped to
#: the VCPU's slice, so the cold window can shrink onto the hot one.
LAYOUTS = {
    "roomy": AddressSpaceLayout(vm_memory_bytes=512 * 1024 * 1024, num_vms=2),
    "tight": AddressSpaceLayout(vm_memory_bytes=1024 * 1024, num_vms=2),
}
DRAWS_PER_MODEL = 300


def chain_draw(model: AddressStreamModel, rng: DeterministicRng, profile, privilege):
    """One ``next_address`` draw, spelled out through the helper chain."""
    line = model._line_size
    if privilege is PrivilegeLevel.USER:
        shared, hot, cold = model._shared, model._user_hot, model._user_cold
        shared_fraction = profile.shared_access_fraction
    else:
        shared, hot, cold = model._kernel_shared, model._kernel_hot, model._kernel_cold
        shared_fraction = profile.os_shared_access_fraction
    if rng.chance(shared_fraction):
        return (rng.sample_address(shared.base, shared.span, line), True)
    address = rng.hot_cold_address(
        cold.base, hot.span, cold.span, profile.hot_access_fraction, line
    )
    return (address, False)


def compare_draws(profile, layout, vm_id, vcpu_index, num_vcpus, seed, line_size=64):
    """Drive a model and its twin chain in lock step.

    Returns the number of shared draws and the model.
    """
    model = AddressStreamModel(
        profile=profile,
        layout=layout,
        vm_id=vm_id,
        vcpu_index=vcpu_index,
        num_vcpus=num_vcpus,
        rng=DeterministicRng(seed),
        line_size=line_size,
    )
    twin = DeterministicRng(seed)
    picks = random.Random(seed)
    shared = 0
    for _ in range(DRAWS_PER_MODEL):
        privilege = picks.choice(PRIVILEGES)
        is_store = picks.random() < 0.3
        got = model.next_address(privilege, is_store)
        assert got == chain_draw(model, twin, profile, privilege)
        shared += got[1]
    # Both streams consumed the same bits: their next raw values agree.
    assert model._r01() == twin.raw.random()
    return shared, model


@pytest.mark.parametrize("name", PAPER_WORKLOAD_NAMES)
def test_next_address_matches_the_helper_chain(name):
    base_profile = get_profile(name)
    draws = shared = clipped = 0
    for layout_name, layout in LAYOUTS.items():
        for scale in FOOTPRINT_SCALES:
            profile = base_profile.scaled(footprint_scale=scale) if scale != 1.0 else base_profile
            for num_vcpus in VCPU_COUNTS:
                for vcpu_index in range(num_vcpus):
                    label = f"{name}:{layout_name}:{scale}:{num_vcpus}:{vcpu_index}"
                    seed = zlib.crc32(label.encode())
                    got_shared, model = compare_draws(
                        profile, layout, 1, vcpu_index, num_vcpus, seed
                    )
                    draws += DRAWS_PER_MODEL
                    shared += got_shared
                    clipped += model._user_cold.span <= model._user_hot.span
                    clipped += model._kernel_cold.span <= model._kernel_hot.span
    # 66 models per profile, so the six profiles make 118,800 draws.
    assert draws == 66 * DRAWS_PER_MODEL
    assert 0 < shared < draws
    assert clipped > 0


@pytest.mark.parametrize("line_size", [1, 64, 128])
@pytest.mark.parametrize(
    "fractions",
    [
        dict(shared_access_fraction=1.0, os_shared_access_fraction=0.0, hot_access_fraction=1.0),
        dict(shared_access_fraction=0.0, os_shared_access_fraction=1.0, hot_access_fraction=0.0),
    ],
)
def test_certain_and_impossible_chances_match_the_helper_chain(fractions, line_size):
    profile = replace(get_profile("oltp"), **fractions).validate()
    for num_vcpus in VCPU_COUNTS:
        compare_draws(profile, LAYOUTS["roomy"], 0, num_vcpus - 1, num_vcpus, 11, line_size)


@pytest.mark.parametrize("line_size", [0, 48, -64])
def test_a_line_size_that_is_not_a_power_of_two_is_refused(line_size):
    with pytest.raises(WorkloadError, match="power of two"):
        AddressStreamModel(
            profile=get_profile("oltp"),
            layout=LAYOUTS["roomy"],
            vm_id=0,
            vcpu_index=0,
            num_vcpus=1,
            rng=DeterministicRng(0),
            line_size=line_size,
        )
