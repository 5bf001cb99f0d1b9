"""Tests for the interconnect latency/bandwidth model and the DRAM model."""

from __future__ import annotations

from repro.config.system import InterconnectConfig, MemoryConfig
from repro.mem.dram import MainMemory
from repro.mem.interconnect import Interconnect


def make_interconnect(**kwargs):
    return Interconnect(InterconnectConfig(**kwargs), MemoryConfig())


def test_cache_to_cache_costs_more_than_l3_hit():
    # A 2-hop L3 access costs the L3 latency; the third hop and the remote
    # L2 come on top.
    interconnect = make_interconnect(hop_latency=10, cache_to_cache_hops=3)
    assert interconnect.cache_to_cache_latency(55, 12) == 55 + 10 + 12


def test_invalidation_latency():
    interconnect = make_interconnect(hop_latency=10)
    assert interconnect.invalidation_latency(0) == 0
    assert interconnect.invalidation_latency(3) == 20


def test_fingerprint_latency_matches_config():
    assert make_interconnect(fingerprint_latency=10).fingerprint_latency == 10


class TestBandwidthWindow:
    def test_no_contention_below_capacity(self):
        interconnect = make_interconnect()
        interconnect.begin_window(10_000)
        for _ in range(10):
            interconnect.record_offchip_transfer()
        assert interconnect.offchip_contention_factor() == 1.0

    def test_contention_grows_with_oversubscription(self):
        interconnect = make_interconnect()
        interconnect.begin_window(100)
        # Capacity is ~13.3 bytes/cycle * 100 cycles ~ 1.3 KB; push 64 KB.
        for _ in range(1024):
            interconnect.record_offchip_transfer()
        factor = interconnect.offchip_contention_factor()
        assert factor > 1.0
        assert factor <= 4.0  # capped

    def test_window_reset_clears_traffic(self):
        interconnect = make_interconnect()
        interconnect.begin_window(100)
        for _ in range(2048):
            interconnect.record_offchip_transfer()
        interconnect.begin_window(100)
        assert interconnect.window_offchip_bytes == 0
        assert interconnect.offchip_contention_factor() == 1.0

    def test_custom_transfer_size(self):
        interconnect = make_interconnect()
        interconnect.begin_window(1000)
        interconnect.record_offchip_transfer(bytes_moved=128)
        assert interconnect.window_offchip_bytes == 128


class TestMainMemory:
    def test_base_latency(self):
        memory = MainMemory(MemoryConfig(load_to_use_latency=350))
        assert memory.access_latency() == 350

    def test_contention_scales_latency(self):
        memory = MainMemory(MemoryConfig(load_to_use_latency=350))
        assert memory.access_latency(contention_factor=2.0) == 700
        # A factor below one never speeds memory up.
        assert memory.access_latency(contention_factor=0.5) == 350

    def test_average_latency_and_writebacks(self):
        memory = MainMemory(MemoryConfig(load_to_use_latency=100))
        assert memory.average_latency == 0.0
        memory.access_latency()
        memory.access_latency(2.0)
        assert memory.average_latency == 150.0
        assert memory.writeback_latency() == 0
        assert memory.stats.get("writebacks") == 1
