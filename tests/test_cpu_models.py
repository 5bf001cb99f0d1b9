"""Tests for ``quantum_costs``: the window, LSQ and serialising-instruction
costs of the analytic timing model."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config.presets import (
    evaluation_system_config,
    paper_system_config,
    small_system_config,
)
from repro.config.system import (
    ConsistencyModel,
    InterconnectConfig,
    ReunionConfig,
    SystemConfig,
)
from repro.cpu.timing import DMR_WINDOW_PRESSURE, quantum_costs

LEVELS = ("l1", "l2", "l3", "c2c", "memory")


def with_core(**changes) -> SystemConfig:
    """The paper machine with some core parameters changed."""
    config = paper_system_config()
    return replace(config, core=replace(config.core, **changes))


def ablation_config(window: int, consistency: ConsistencyModel) -> SystemConfig:
    return (
        evaluation_system_config(8)
        .with_window_entries(window)
        .with_consistency(consistency)
    )


#: (check cycles, store exposure, load-queue pressure, serialising cycles,
#: load exposures of l1, l2, l3, c2c, memory) per configuration and DMR flag,
#: recorded from the window, LSQ and serialising-instruction model classes
#: that ``quantum_costs`` replaced.
RECORDED = {
    ("paper", False): (0.0, 0.35, 1.0, 42.0, (0.0, 0.25, 0.35, 0.35, 0.35)),
    ("paper", True): (0.1875, 0.48999999999999994, 1.0, 90.6, (0.0, 0.25, 0.5425, 0.5425, 0.5425)),
    ("small", False): (0.0, 1.0, 2.5, 18.0, (0.0, 1.0, 1.0, 1.0, 1.0)),
    ("small", True): (0.3, 1.0, 2.5, 51.4, (0.0, 1.0, 1.0, 1.0, 1.0)),
    ("evaluation-8", False): (0.0, 0.35, 1.0, 42.0, (0.0, 0.25, 0.35, 0.35, 0.35)),
    ("evaluation-8", True): (0.1875, 0.48999999999999994, 1.0, 90.6, (0.0, 0.25, 0.5425, 0.5425, 0.5425)),
    ("evaluation-16", False): (0.0, 0.35, 1.0, 42.0, (0.0, 0.25, 0.35, 0.35, 0.35)),
    ("evaluation-16", True): (0.1875, 0.48999999999999994, 1.0, 90.6, (0.0, 0.25, 0.5425, 0.5425, 0.5425)),
    ("window128-sc", False): (0.0, 0.35, 1.0, 42.0, (0.0, 0.25, 0.35, 0.35, 0.35)),
    ("window128-sc", True): (0.1875, 0.48999999999999994, 1.0, 90.6, (0.0, 0.25, 0.5425, 0.5425, 0.5425)),
    ("window256-sc", False): (0.0, 0.35, 1.0, 74.0, (0.0, 0.125, 0.175, 0.175, 0.175)),
    ("window256-sc", True): (0.1875, 0.48999999999999994, 1.0, 140.2, (0.0, 0.125, 0.27125, 0.27125, 0.27125)),
    ("window256-tso", False): (0.0, 0.06, 1.0, 74.0, (0.0, 0.125, 0.175, 0.175, 0.175)),
    ("window256-tso", True): (0.1875, 0.06, 1.0, 140.2, (0.0, 0.125, 0.27125, 0.27125, 0.27125)),
}

CONFIGS = {
    "paper": paper_system_config,
    "small": small_system_config,
    "evaluation-8": lambda: evaluation_system_config(8),
    "evaluation-16": lambda: evaluation_system_config(16),
    "window128-sc": lambda: ablation_config(128, ConsistencyModel.SEQUENTIAL),
    "window256-sc": lambda: ablation_config(256, ConsistencyModel.SEQUENTIAL),
    "window256-tso": lambda: ablation_config(256, ConsistencyModel.TSO),
}


@pytest.mark.parametrize("name, dmr", sorted(RECORDED))
def test_costs_match_the_recorded_values_exactly(name, dmr):
    costs = quantum_costs(CONFIGS[name](), dmr)
    check, store, load_pressure, serializing, exposures = RECORDED[(name, dmr)]
    assert costs.check_cycles == check
    assert costs.store_exposure == store
    assert costs.load_pressure == load_pressure
    assert costs.serializing_cycles == serializing
    assert tuple(costs.load_exposures[level] for level in LEVELS) == exposures


class TestWindowModel:
    def test_dmr_shrinks_effective_window(self):
        # Under DMR a window behaves like one DMR_WINDOW_PRESSURE times
        # smaller without DMR.
        dmr = quantum_costs(with_core(window_entries=155), dmr=True)
        plain = quantum_costs(
            with_core(window_entries=round(155 / DMR_WINDOW_PRESSURE)), dmr=False
        )
        for level in ("l3", "c2c", "memory"):
            assert dmr.load_exposures[level] == pytest.approx(
                plain.load_exposures[level]
            )

    def test_dmr_raises_offcore_exposure(self):
        config = paper_system_config()
        plain = quantum_costs(config, dmr=False).load_exposures
        dmr = quantum_costs(config, dmr=True).load_exposures
        for level in ("l3", "c2c", "memory"):
            assert dmr[level] > plain[level]
        assert dmr["l2"] == plain["l2"]

    def test_larger_window_hides_more_latency(self):
        small = quantum_costs(with_core(window_entries=64), dmr=False).load_exposures
        large = quantum_costs(with_core(window_entries=256), dmr=False).load_exposures
        for level in ("l2", "l3", "c2c", "memory"):
            assert large[level] < small[level]

    def test_exposures_are_bounded(self):
        for window in (8, 32, 128, 4096):
            for dmr in (False, True):
                exposures = quantum_costs(with_core(window_entries=window), dmr).load_exposures
                assert exposures["l1"] == 0.0
                for level in ("l2", "l3", "c2c", "memory"):
                    assert 0.05 <= exposures[level] <= 1.0
        # Both clamps are reached.
        assert quantum_costs(with_core(window_entries=8), True).load_exposures["memory"] == 1.0
        assert quantum_costs(with_core(window_entries=4096), False).load_exposures["l2"] == 0.05

    def test_drain_is_longer_under_dmr(self):
        # With the validation hand-shake costing nothing, what DMR adds to a
        # serialising instruction is the longer wait for the window.
        config = replace(
            paper_system_config(),
            interconnect=InterconnectConfig(fingerprint_latency=0),
            reunion=ReunionConfig(check_stage_cycles=0, serializing_check_cycles=0),
        )
        assert (
            quantum_costs(config, dmr=True).serializing_cycles
            > quantum_costs(config, dmr=False).serializing_cycles
        )


class TestLsqModel:
    def test_sc_exposes_much_more_than_tso(self):
        sc = quantum_costs(with_core(consistency=ConsistencyModel.SEQUENTIAL), False)
        tso = quantum_costs(with_core(consistency=ConsistencyModel.TSO), False)
        assert sc.store_exposure > 3 * tso.store_exposure

    def test_dmr_inflates_sc_store_exposure_only(self):
        sc = with_core()
        tso = with_core(consistency=ConsistencyModel.TSO)
        assert quantum_costs(sc, True).store_exposure > quantum_costs(sc, False).store_exposure
        assert quantum_costs(tso, True).store_exposure == quantum_costs(tso, False).store_exposure

    def test_small_store_queue_exposes_more(self):
        small = quantum_costs(with_core(lsq_store_entries=8), False)
        large = quantum_costs(with_core(lsq_store_entries=64), False)
        assert small.store_exposure > large.store_exposure

    def test_load_queue_pressure_at_reference_size_is_one(self):
        assert quantum_costs(with_core(lsq_load_entries=32), False).load_pressure == 1.0
        assert quantum_costs(with_core(lsq_load_entries=8), False).load_pressure > 1.0


class TestSerializingModel:
    def test_dmr_adds_validation_round_trip(self):
        config = paper_system_config()
        assert (
            quantum_costs(config, dmr=True).serializing_cycles
            > quantum_costs(config, dmr=False).serializing_cycles
        )

    def test_validation_includes_fingerprint_latency(self):
        # Under DMR a serialising instruction pays the fingerprint latency
        # plus the Check and serialising-check cycles on top of its drain.
        config = paper_system_config()
        free_validation = replace(
            config,
            interconnect=InterconnectConfig(fingerprint_latency=0),
            reunion=ReunionConfig(check_stage_cycles=0, serializing_check_cycles=0),
        )
        validation = (
            config.interconnect.fingerprint_latency
            + config.reunion.check_stage_cycles
            + config.reunion.serializing_check_cycles
        )
        assert quantum_costs(config, True).serializing_cycles == pytest.approx(
            quantum_costs(free_validation, True).serializing_cycles + validation
        )
