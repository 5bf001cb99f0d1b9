"""Tests for the VCPU state-transfer engine."""

from __future__ import annotations

import pytest

from repro.common.addresses import AddressSpaceLayout
from repro.mem.hierarchy import MemoryHierarchy
from repro.virt.migration import VcpuStateTransferEngine
from repro.virt.scratchpad import ScratchpadManager


@pytest.fixture
def engine(small_config):
    layout = AddressSpaceLayout(scratchpad_bytes=128 * 1024)
    hierarchy = MemoryHierarchy(small_config)
    scratchpad = ScratchpadManager(layout, vcpu_state_bytes=2355)
    return VcpuStateTransferEngine(hierarchy=hierarchy, scratchpad=scratchpad)


def test_save_moves_all_state_lines(engine):
    result = engine.save_state(core_id=0, vcpu_id=0)
    assert result.lines == 37
    assert result.cycles > 0
    assert result.total_latency > 0


def test_second_save_is_cheaper_than_the_first(engine):
    first = engine.save_state(core_id=0, vcpu_id=0)
    second = engine.save_state(core_id=0, vcpu_id=0)
    assert second.cycles <= first.cycles


def test_load_after_save_hits_the_cache_hierarchy(engine):
    engine.save_state(core_id=0, vcpu_id=1)
    load_same_core = engine.load_state(core_id=0, vcpu_id=1)
    assert load_same_core.cycles < 37 * engine.hierarchy.config.memory.load_to_use_latency


def test_privileged_state_is_a_couple_of_lines(engine):
    result = engine.save_privileged_state(core_id=0, vcpu_id=2)
    assert 1 <= result.lines <= 2
    assert result.cycles < engine.save_state(core_id=0, vcpu_id=3).cycles


def test_redundant_and_primary_copies_use_distinct_slots(engine):
    engine.save_state(core_id=0, vcpu_id=4, copy=ScratchpadManager.PRIMARY)
    engine.save_state(core_id=1, vcpu_id=4, copy=ScratchpadManager.REDUNDANT)
    primary = engine.scratchpad.slot_for(4, ScratchpadManager.PRIMARY)
    redundant = engine.scratchpad.slot_for(4, ScratchpadManager.REDUNDANT)
    assert primary.base != redundant.base
