"""Tests for the system configuration dataclasses and presets."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config.presets import (
    evaluation_system_config,
    paper_system_config,
    small_system_config,
)
from repro.config.system import (
    CacheConfig,
    ConsistencyModel,
    CoreConfig,
    MemoryConfig,
    PabConfig,
    PabLookupMode,
    ReunionConfig,
    SystemConfig,
    TlbConfig,
)
from repro.errors import ConfigurationError


class TestCacheConfig:
    def test_paper_l2_geometry(self):
        l2 = CacheConfig(name="L2", size_bytes=512 * 1024, associativity=4)
        assert l2.num_lines == 8192
        assert l2.num_sets == 2048

    def test_invalid_line_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(name="bad", size_bytes=1024, associativity=2, line_bytes=48).validate()

    def test_size_not_multiple_of_line(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(name="bad", size_bytes=1000, associativity=2).validate()


class TestCoreConfig:
    def test_defaults_match_paper(self):
        core = CoreConfig()
        assert core.pipeline_stages == 8
        assert core.issue_width == 2
        assert core.window_entries == 128
        assert core.lsq_load_entries == 32
        assert core.lsq_store_entries == 32
        assert core.consistency is ConsistencyModel.SEQUENTIAL

    def test_invalid_mispredict_rate(self):
        with pytest.raises(ConfigurationError):
            replace(CoreConfig(), branch_mispredict_rate=1.5).validate()


class TestPabConfig:
    def test_paper_geometry(self):
        pab = PabConfig()
        # 128 entries x 64 bytes of PAT bits map 512 pages each -> 512 MB.
        assert pab.pages_per_entry == 512
        assert pab.mapped_bytes == 512 * 1024 * 1024
        # ~8.2 KB of storage, as the paper states.
        assert 8 * 1024 <= pab.storage_bytes <= 9 * 1024

    def test_entry_count_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            PabConfig(entries=100).validate()


def test_memory_bytes_per_cycle():
    memory = MemoryConfig(bandwidth_gb_per_s=40.0, frequency_ghz=3.0)
    assert 13.0 < memory.bytes_per_cycle() < 13.5


class TestSystemConfig:
    def test_paper_preset_validates(self):
        config = paper_system_config()
        assert config.num_cores == 16
        assert config.max_dmr_pairs == 8
        assert config.l3.shared
        assert config.l3.exclusive_of_upper
        assert config.l1d.write_through

    def test_small_preset_validates_and_is_small(self):
        config = small_system_config()
        assert config.num_cores == 4
        assert config.l3.size_bytes < paper_system_config().l3.size_bytes

    def test_odd_core_count_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(paper_system_config(), num_cores=15).validate()

    def test_mismatched_line_sizes_rejected(self):
        config = paper_system_config()
        bad_l2 = CacheConfig(name="L2", size_bytes=512 * 1024, associativity=4, line_bytes=128)
        with pytest.raises(ConfigurationError):
            replace(config, l2=bad_l2).validate()

    def test_with_pab_lookup_returns_modified_copy(self):
        config = paper_system_config()
        serial = config.with_pab_lookup(PabLookupMode.SERIAL)
        assert serial.pab.lookup_mode is PabLookupMode.SERIAL
        assert config.pab.lookup_mode is PabLookupMode.PARALLEL

    def test_with_window_and_consistency(self):
        config = paper_system_config()
        modified = config.with_window_entries(256).with_consistency(ConsistencyModel.TSO)
        assert modified.core.window_entries == 256
        assert modified.core.consistency is ConsistencyModel.TSO
        assert config.core.window_entries == 128


class TestEvaluationPreset:
    def test_scale_one_is_the_paper_machine(self):
        assert evaluation_system_config(capacity_scale=1).l2.size_bytes == 512 * 1024

    def test_capacities_shrink_but_latencies_do_not(self):
        paper = paper_system_config()
        scaled = evaluation_system_config(capacity_scale=8)
        assert scaled.l2.size_bytes == paper.l2.size_bytes // 8
        assert scaled.l3.size_bytes == paper.l3.size_bytes // 8
        assert scaled.l3.hit_latency == paper.l3.hit_latency
        assert scaled.memory.load_to_use_latency == paper.memory.load_to_use_latency
        assert scaled.core == paper.core

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            evaluation_system_config(capacity_scale=0)


def test_reunion_and_tlb_validation():
    with pytest.raises(ConfigurationError):
        ReunionConfig(fingerprint_interval=0).validate()
    with pytest.raises(ConfigurationError):
        TlbConfig(entries=0).validate()
