"""Tests for the page table and the hardware-filled TLB."""

from __future__ import annotations

import pytest

from repro.common.addresses import Region
from repro.config.system import TlbConfig
from repro.errors import ProtectionError
from repro.tlb.page_table import PageFlags, PageTable
from repro.tlb.tlb import TranslationLookasideBuffer


@pytest.fixture
def page_table():
    table = PageTable(page_size=8192)
    table.map_region(
        Region("user", 0, 32 * 8192), PageFlags.USER_READ | PageFlags.USER_WRITE, domain=0
    )
    table.map_region(
        Region("kernel", 32 * 8192, 8 * 8192),
        PageFlags.PRIVILEGED_ONLY | PageFlags.RELIABLE_ONLY,
        domain=-1,
    )
    return table


@pytest.fixture
def tlb(page_table):
    return TranslationLookasideBuffer(TlbConfig(entries=8, fill_latency=30), page_table)


class TestPageTable:
    def test_map_region_counts_pages(self, page_table):
        assert len(page_table) == 40

    def test_translate_identity_mapping(self, page_table):
        physical, entry = page_table.translate(3 * 8192 + 17)
        assert physical == 3 * 8192 + 17
        assert entry.user_writable

    def test_translate_unmapped_raises(self, page_table):
        with pytest.raises(ProtectionError):
            page_table.translate(1000 * 8192)

    def test_reliable_pages_iterates_kernel_region(self, page_table):
        reliable = list(page_table.reliable_pages())
        assert len(reliable) == 8
        assert min(reliable) == 32

    def test_invalid_page_size_rejected(self):
        with pytest.raises(ProtectionError):
            PageTable(page_size=3000)


class TestTlb:
    def test_miss_then_hit(self, tlb):
        first = tlb.translate(0x100, is_store=False, privileged=False)
        assert not first.hit
        assert first.latency == 30
        second = tlb.translate(0x100, is_store=False, privileged=False)
        assert second.hit
        assert second.latency == 0
        assert second.physical_address == 0x100

    def test_permission_check_blocks_user_store_to_readonly_page(self, page_table):
        page_table.map_page(5, PageFlags.USER_READ, domain=0)
        tlb = TranslationLookasideBuffer(TlbConfig(entries=8), page_table)
        result = tlb.translate(5 * 8192, is_store=True, privileged=False)
        assert not result.permitted
        load = tlb.translate(5 * 8192, is_store=False, privileged=False)
        assert load.permitted

    def test_privileged_only_page_blocks_user_access(self, tlb):
        result = tlb.translate(33 * 8192, is_store=False, privileged=False)
        assert not result.permitted
        privileged = tlb.translate(33 * 8192, is_store=True, privileged=True)
        assert privileged.permitted

    def test_capacity_eviction(self, tlb):
        for page in range(10):
            tlb.translate(page * 8192, is_store=False, privileged=False)
        assert tlb.occupancy == 8
        # The two least recently used pages went.
        hits = [
            tlb.translate(page * 8192, is_store=False, privileged=False).hit
            for page in range(2, 10)
        ]
        assert hits == [True] * 8
        assert not tlb.translate(0, is_store=False, privileged=False).hit

    def test_fill_of_unmapped_page_raises(self, tlb):
        with pytest.raises(ProtectionError):
            tlb.translate(500 * 8192, is_store=False, privileged=False)
