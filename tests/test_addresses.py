"""Tests for address arithmetic and the physical address-space layout."""

from __future__ import annotations

import pytest

from repro.common.addresses import (
    AddressSpaceLayout,
    Region,
    align_down,
    align_up,
)
from repro.errors import ConfigurationError


def test_align_down_and_up():
    assert align_down(130, 64) == 128
    assert align_up(130, 64) == 192
    assert align_up(128, 64) == 128
    assert align_down(128, 64) == 128


def test_align_rejects_nonpositive_alignment():
    with pytest.raises(ConfigurationError):
        align_down(10, 0)
    with pytest.raises(ConfigurationError):
        align_up(10, -4)


def test_region_contains_and_offset():
    region = Region("r", base=0x1000, size=0x100)
    assert region.contains(0x1000)
    assert region.contains(0x10FF)
    assert not region.contains(0x1100)
    assert region.offset_address(0x10) == 0x1010
    with pytest.raises(ConfigurationError):
        region.offset_address(0x100)


class TestAddressSpaceLayout:
    def test_regions_are_disjoint_and_ordered(self):
        layout = AddressSpaceLayout(vm_memory_bytes=4 * 1024 * 1024, num_vms=2)
        regions = [
            layout.vm_region(0),
            layout.vm_region(1),
            layout.scratchpad_region(),
            layout.pat_region(),
        ]
        for earlier, later in zip(regions, regions[1:]):
            assert earlier.end <= later.base

    def test_vm_subregions_partition_the_vm_region(self):
        layout = AddressSpaceLayout(vm_memory_bytes=4 * 1024 * 1024, num_vms=1)
        vm = layout.vm_region(0)
        user = layout.user_region(0)
        shared = layout.shared_region(0)
        kernel = layout.kernel_region(0)
        assert user.base == vm.base
        assert user.end == shared.base
        assert shared.end == kernel.base
        assert kernel.end == vm.end

    def test_owner_of_resolves_regions(self):
        layout = AddressSpaceLayout(vm_memory_bytes=2 * 1024 * 1024, num_vms=2)
        assert layout.owner_of(layout.user_region(1).base) == "vm1"
        assert layout.owner_of(layout.scratchpad_region().base) == "scratchpad"
        assert layout.owner_of(layout.pat_region().base) == "pat"

    def test_owner_of_outside_memory_raises(self):
        layout = AddressSpaceLayout(vm_memory_bytes=2 * 1024 * 1024, num_vms=1)
        with pytest.raises(ConfigurationError):
            layout.owner_of(layout.total_bytes + 10)

    def test_unknown_region_name_raises(self):
        layout = AddressSpaceLayout()
        with pytest.raises(ConfigurationError):
            layout.region("vm7")

    def test_scratchpad_slots_do_not_overlap(self):
        layout = AddressSpaceLayout(scratchpad_bytes=64 * 1024)
        slot0 = layout.scratchpad_slot(0, 2368)
        slot1 = layout.scratchpad_slot(1, 2368)
        assert slot0.end <= slot1.base
        assert layout.scratchpad_region().contains(slot1.base)

    def test_scratchpad_slot_overflow_raises(self):
        layout = AddressSpaceLayout(scratchpad_bytes=16 * 1024)
        with pytest.raises(ConfigurationError):
            layout.scratchpad_slot(1000, 2368)

    def test_requires_at_least_one_vm(self):
        with pytest.raises(ConfigurationError):
            AddressSpaceLayout(num_vms=0)

    def test_total_bytes_covers_everything(self):
        layout = AddressSpaceLayout(vm_memory_bytes=2 * 1024 * 1024, num_vms=3)
        assert layout.total_bytes == layout.pat_region().end
