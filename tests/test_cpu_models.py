"""Tests for the window/LSQ/serialising models and timing parameters."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config.system import ConsistencyModel, CoreConfig, InterconnectConfig, ReunionConfig
from repro.cpu.lsq import LoadStoreQueueModel
from repro.cpu.parameters import TimingModelParameters
from repro.cpu.serializing import SerializingInstructionModel
from repro.cpu.window import InstructionWindowModel
from repro.errors import ConfigurationError


@pytest.fixture
def parameters():
    return TimingModelParameters()


@pytest.fixture
def core_config():
    return CoreConfig()


class TestParameters:
    def test_defaults_validate(self, parameters):
        assert parameters.validate() is parameters

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(TimingModelParameters(), memory_exposure=1.5).validate()
        with pytest.raises(ConfigurationError):
            replace(TimingModelParameters(), dmr_window_pressure=0.5).validate()
        with pytest.raises(ConfigurationError):
            replace(TimingModelParameters(), reference_window_entries=2).validate()


class TestWindowModel:
    def test_dmr_shrinks_effective_window(self, core_config, parameters):
        window = InstructionWindowModel(core_config, parameters)
        assert window.effective_entries(dmr_active=True) < window.effective_entries(
            dmr_active=False
        )

    def test_dmr_raises_offcore_exposure(self, core_config, parameters):
        window = InstructionWindowModel(core_config, parameters)
        assert window.l3_exposure(True) > window.l3_exposure(False)
        assert window.memory_exposure(True) > window.memory_exposure(False)

    def test_larger_window_hides_more_latency(self, parameters):
        small = InstructionWindowModel(CoreConfig(window_entries=64), parameters)
        large = InstructionWindowModel(CoreConfig(window_entries=256), parameters)
        assert large.memory_exposure(False) < small.memory_exposure(False)
        assert large.l3_exposure(False) < small.l3_exposure(False)

    def test_exposures_are_bounded(self, core_config, parameters):
        window = InstructionWindowModel(core_config, parameters)
        for level in ("l1", "l2", "l3", "c2c", "memory"):
            for dmr in (False, True):
                exposure = window.exposure_for_level(level, dmr)
                assert 0.0 <= exposure <= 1.0
        assert window.exposure_for_level("l1", False) == 0.0

    def test_drain_is_longer_under_dmr(self, core_config, parameters):
        window = InstructionWindowModel(core_config, parameters)
        assert window.drain_cycles(True) > window.drain_cycles(False)


class TestLsqModel:
    def test_sc_exposes_much_more_than_tso(self, parameters):
        sc = LoadStoreQueueModel(CoreConfig(consistency=ConsistencyModel.SEQUENTIAL), parameters)
        tso = LoadStoreQueueModel(CoreConfig(consistency=ConsistencyModel.TSO), parameters)
        assert sc.store_exposure(False) > 3 * tso.store_exposure(False)

    def test_dmr_inflates_sc_store_exposure_only(self, parameters):
        sc = LoadStoreQueueModel(CoreConfig(), parameters)
        tso = LoadStoreQueueModel(CoreConfig(consistency=ConsistencyModel.TSO), parameters)
        assert sc.store_exposure(True) > sc.store_exposure(False)
        assert tso.store_exposure(True) == tso.store_exposure(False)

    def test_small_store_queue_exposes_more(self, parameters):
        small = LoadStoreQueueModel(CoreConfig(lsq_store_entries=8), parameters)
        large = LoadStoreQueueModel(CoreConfig(lsq_store_entries=64), parameters)
        assert small.store_exposure(False) > large.store_exposure(False)

    def test_load_queue_pressure_at_reference_size_is_one(self, parameters):
        model = LoadStoreQueueModel(CoreConfig(lsq_load_entries=32), parameters)
        assert model.load_queue_pressure() == pytest.approx(1.0)
        small = LoadStoreQueueModel(CoreConfig(lsq_load_entries=8), parameters)
        assert small.load_queue_pressure() > 1.0


class TestSerializingModel:
    def make(self, parameters, core_config=None):
        core_config = core_config or CoreConfig()
        window = InstructionWindowModel(core_config, parameters)
        return SerializingInstructionModel(
            core_config, ReunionConfig(), InterconnectConfig(), window
        )

    def test_dmr_adds_validation_round_trip(self, parameters):
        model = self.make(parameters)
        plain = model.cost(dmr_active=False)
        dmr = model.cost(dmr_active=True)
        assert plain.validation_cycles == 0.0
        assert dmr.validation_cycles > 0.0
        assert dmr.total > plain.total

    def test_validation_includes_fingerprint_latency(self, parameters):
        model = self.make(parameters)
        cost = model.cost(dmr_active=True)
        assert cost.validation_cycles >= InterconnectConfig().fingerprint_latency

    def test_total_is_sum_of_parts(self, parameters):
        cost = self.make(parameters).cost(dmr_active=True)
        assert cost.total == pytest.approx(cost.drain_cycles + cost.validation_cycles)
