"""Tests for the PAT, the PAB, and protection-violation logging."""

from __future__ import annotations

import pytest

from repro.common.addresses import Region
from repro.config.system import PabConfig, PabLookupMode
from repro.errors import ProtectionError
from repro.mem.hierarchy import MemoryHierarchy
from repro.protection.pab import ProtectionAssistanceBuffer
from repro.protection.pat import ProtectionAssistanceTable
from repro.protection.violations import ProtectionViolation, ViolationKind, ViolationLog

PAGE = 8192


@pytest.fixture
def pat():
    return ProtectionAssistanceTable(physical_memory_bytes=512 * PAGE, page_size=PAGE)


class TestPat:
    def test_paper_sizing_one_bit_per_page(self):
        one_tb = ProtectionAssistanceTable(physical_memory_bytes=1 << 40, page_size=PAGE)
        assert one_tb.size_bytes == 16 * 1024 * 1024  # 16 MB per TB, as in the paper

    def test_mark_and_query(self, pat):
        assert not pat.is_reliable_only(5)
        pat.mark_reliable_page(5)
        assert pat.is_reliable_only(5)
        assert pat.is_reliable_only_address(5 * PAGE + 100)
        assert not pat.is_reliable_only(6)

    def test_mark_region(self, pat):
        count = pat.mark_reliable_region(Region("r", 10 * PAGE, 4 * PAGE))
        assert count == 4
        assert list(pat.reliable_pages()) == [10, 11, 12, 13]
        assert pat.reliable_page_count == 4

    def test_out_of_range_page_rejected(self, pat):
        with pytest.raises(ProtectionError):
            pat.mark_reliable_page(100000)
        with pytest.raises(ProtectionError):
            pat.is_reliable_only(-1)

    def test_entry_address_uses_backing_region(self):
        backing = Region("pat", 0x10_0000, 0x1000)
        pat = ProtectionAssistanceTable(
            physical_memory_bytes=4096 * PAGE, page_size=PAGE, backing_region=backing
        )
        assert pat.entry_address(0) == 0x10_0000
        assert pat.entry_address(512) == 0x10_0040
        assert pat.entry_address(1023) == 0x10_0040


class TestPab:
    def make_pab(self, pat, mode=PabLookupMode.PARALLEL, hierarchy=None):
        return ProtectionAssistanceBuffer(
            config=PabConfig(entries=4, lookup_mode=mode),
            pat=pat,
            core_id=0,
            hierarchy=hierarchy,
        )

    def test_allows_open_pages_and_blocks_reliable_pages(self, pat):
        pat.mark_reliable_page(7)
        pab = self.make_pab(pat)
        allowed = pab.check_store(3 * PAGE)
        blocked = pab.check_store(7 * PAGE + 64)
        assert allowed.allowed
        assert not blocked.allowed

    def test_parallel_hits_add_no_latency_serial_adds_two_cycles(self, pat):
        parallel = self.make_pab(pat, PabLookupMode.PARALLEL)
        serial = self.make_pab(pat, PabLookupMode.SERIAL)
        parallel.check_store(0)     # miss fills the entry
        serial.check_store(0)
        assert parallel.check_store(64).latency == 0
        assert serial.check_store(64).latency == 2
        assert serial.check_store(64).serialized

    def test_miss_fetches_pat_block_through_hierarchy(self, pat, small_config):
        hierarchy = MemoryHierarchy(small_config)
        pab = self.make_pab(pat, hierarchy=hierarchy)
        result = pab.check_store(0)
        assert not result.hit
        assert result.latency > 0  # the PAT fill went through the caches
        assert pab.check_store(64).hit

    def test_out_of_range_store_is_blocked(self, pat):
        pab = self.make_pab(pat)
        result = pab.check_store(10**12)
        assert not result.allowed

    @staticmethod
    def six_block_pat():
        """A PAT covering six PAB blocks' worth of pages (512 pages per block)."""
        return ProtectionAssistanceTable(physical_memory_bytes=6 * 512 * PAGE, page_size=PAGE)

    def test_lru_eviction_of_entries(self):
        pab = self.make_pab(self.six_block_pat())
        block_bytes = pab.pages_per_entry * PAGE
        for block in range(6):
            pab.check_store(block * block_bytes)
        assert pab.occupancy == 4
        # The two least recently used blocks went.
        assert [pab.check_store(block * block_bytes).hit for block in (2, 3, 4, 5)] == [
            True, True, True, True
        ]
        assert not pab.check_store(0).hit

    def test_stale_entry_reflects_old_permissions_until_invalidated(self):
        """The PAB is a cache: a PAT update shows once the stale entry is evicted."""
        pat = self.six_block_pat()
        pab = self.make_pab(pat)
        block_bytes = pab.pages_per_entry * PAGE
        assert pab.check_store(9 * PAGE).allowed
        pat.mark_reliable_page(9)
        assert pab.check_store(9 * PAGE).allowed          # stale
        for block in range(1, 5):
            pab.check_store(block * block_bytes)
        assert not pab.check_store(9 * PAGE).allowed      # refetched

    def test_page_size_mismatch_rejected(self, pat):
        with pytest.raises(ProtectionError):
            ProtectionAssistanceBuffer(
                config=PabConfig(page_bytes=4096), pat=pat, core_id=0
            )


class TestViolationLog:
    def test_counts_by_kind(self):
        log = ViolationLog()
        log.record(ProtectionViolation(ViolationKind.PAB_BLOCKED, 10, 0, 1, 0x100))
        log.record(ProtectionViolation(ViolationKind.PAB_BLOCKED, 20, 1, 2, 0x200))
        log.record(ProtectionViolation(ViolationKind.SILENT_CORRUPTION, 30, 2, 3, 0x300))
        assert len(log) == 3
        assert log.count(ViolationKind.PAB_BLOCKED) == 2
        assert log.silent_corruptions == 1
