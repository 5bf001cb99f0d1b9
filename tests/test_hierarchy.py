"""Tests for the three-level cache hierarchy."""

from __future__ import annotations

import pytest

from repro.errors import MemorySystemError
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.lines import LineState


@pytest.fixture
def hierarchy(small_config):
    return MemoryHierarchy(small_config)


ADDR = 0x4_0000


class TestCoherentLoads:
    def test_first_load_misses_to_memory(self, hierarchy):
        result = hierarchy.load(0, ADDR)
        assert result.level == "memory"
        assert hierarchy.memory.stats.get("accesses") == 1
        assert result.latency >= hierarchy.config.memory.load_to_use_latency

    def test_second_load_hits_l1(self, hierarchy):
        hierarchy.load(0, ADDR)
        result = hierarchy.load(0, ADDR)
        assert result.level == "l1"
        assert result.latency == hierarchy.config.l1d.hit_latency

    def test_l2_hit_after_l1_eviction(self, hierarchy):
        hierarchy.load(0, ADDR)
        # Thrash the L1 set containing ADDR so it falls back to the L2.
        l1 = hierarchy.l1d[0]
        stride = l1.config.num_sets * 64
        for way in range(1, l1.config.associativity + 2):
            hierarchy.load(0, ADDR + way * stride)
        result = hierarchy.load(0, ADDR)
        assert result.level in ("l2", "l1")

    def test_remote_clean_copy_served_by_cache_to_cache(self, hierarchy):
        hierarchy.load(0, ADDR)
        result = hierarchy.load(1, ADDR)
        assert result.level == "c2c"
        # A 3-hop transfer costs more than a plain L3 hit.
        assert result.latency > hierarchy.config.l3.hit_latency

    def test_exclusive_l3_holds_l2_victims(self, hierarchy):
        l2 = hierarchy.l2[0]
        stride = l2.config.num_sets * 64
        base = 0x10_0000
        # Fill one L2 set beyond its associativity to force victims into L3.
        for way in range(l2.config.associativity + 2):
            hierarchy.load(0, base + way * stride)
        assert hierarchy.l3.occupancy >= 1


class TestCoherentStores:
    def test_store_gains_ownership(self, hierarchy):
        hierarchy.store(0, ADDR)
        assert hierarchy.directory.owner_of(ADDR) == 0
        line = hierarchy.l2[0].lookup(ADDR)
        assert line.state is LineState.MODIFIED
        assert line.dirty

    def test_store_invalidates_remote_sharers(self, hierarchy):
        hierarchy.load(0, ADDR)
        hierarchy.load(1, ADDR)
        before = hierarchy.stats.get("remote_invalidations")
        hierarchy.store(2, ADDR)
        # Both sharers, cores 0 and 1, lose their copies.
        assert hierarchy.stats.get("remote_invalidations") - before == 2
        assert not hierarchy.l2[0].contains(ADDR)
        assert not hierarchy.l1d[1].contains(ADDR)
        assert hierarchy.directory.owner_of(ADDR) == 2

    def test_store_hit_in_own_l2_is_cheap(self, hierarchy):
        hierarchy.store(0, ADDR)
        result = hierarchy.store(0, ADDR)
        assert result.level == "l2"
        assert result.latency == hierarchy.config.l2.hit_latency


class TestMuteAccesses:
    def test_mute_fill_does_not_touch_directory(self, hierarchy):
        hierarchy.load(1, ADDR, coherent=False)
        assert hierarchy.directory.peek(ADDR) is None
        line = hierarchy.l2[1].lookup(ADDR)
        assert line is not None
        assert not line.coherent

    def test_mute_read_of_vocal_line_is_c2c_and_leaves_owner_intact(self, hierarchy):
        hierarchy.store(0, ADDR)  # vocal owns the line dirty
        result = hierarchy.load(1, ADDR, coherent=False)
        assert result.level == "c2c"
        assert hierarchy.directory.owner_of(ADDR) == 0
        assert hierarchy.l2[0].lookup(ADDR).dirty

    def test_mute_store_never_marks_lines_coherent(self, hierarchy):
        hierarchy.store(1, ADDR, coherent=False)
        line = hierarchy.l2[1].lookup(ADDR)
        assert line.dirty and not line.coherent
        assert not line.needs_writeback

    def test_mute_l3_read_does_not_remove_the_line(self, hierarchy):
        # Put the line into the L3 by filling core 0's L2 set and evicting it.
        hierarchy.load(0, ADDR)
        l2 = hierarchy.l2[0]
        stride = l2.config.num_sets * 64
        for way in range(1, l2.config.associativity + 1):
            hierarchy.load(0, ADDR + way * stride)
        if hierarchy.l3.contains(ADDR):
            result = hierarchy.load(1, ADDR, coherent=False)
            assert result.level in ("l3", "c2c")
            assert hierarchy.l3.contains(ADDR) or result.level == "c2c"


class TestFlush:
    def test_flush_cost_is_one_cycle_per_frame(self, hierarchy):
        result = hierarchy.flush_l2(0)
        assert result.lines_inspected == hierarchy.config.l2.num_lines
        assert result.cycles >= hierarchy.config.l2.num_lines

    def test_flush_writes_back_coherent_dirty_lines_only(self, hierarchy):
        hierarchy.store(0, ADDR)                      # coherent dirty
        hierarchy.store(0, ADDR + 0x800_0, coherent=False)  # incoherent dirty
        result = hierarchy.flush_l2(0)
        assert result.dirty_writebacks == 1
        assert result.incoherent_dropped >= 1
        assert hierarchy.l2[0].occupancy == 0
        assert hierarchy.l1d[0].occupancy == 0
        # The coherent dirty line survived in the L3.
        assert hierarchy.l3.contains(ADDR)

    def test_flush_cost_scales_with_l2_size(self, small_config, paper_config):
        small = MemoryHierarchy(small_config).flush_l2(0).cycles
        # The paper's 512 KB L2 flush is ~8k cycles (8192 frames).
        large = MemoryHierarchy(paper_config).flush_l2(0)
        assert large.lines_inspected == 8192
        assert large.cycles >= 8192
        assert small < large.cycles


class TestErrorsAndStats:
    def test_unknown_core_rejected(self, hierarchy):
        with pytest.raises(MemorySystemError):
            hierarchy.load(99, ADDR)

    def test_negative_address_rejected(self, hierarchy):
        with pytest.raises(MemorySystemError):
            hierarchy.load(0, -4)

    def test_merged_stats_include_memory_counters(self, hierarchy):
        hierarchy.load(0, ADDR)
        merged = hierarchy.merged_stats()
        assert merged.get("accesses") >= 1
        assert merged.get("l1d.misses") >= 1

    def test_c2c_counter(self, hierarchy):
        hierarchy.store(0, ADDR)
        hierarchy.load(1, ADDR)
        assert hierarchy.stats.get("c2c_transfers") >= 1
