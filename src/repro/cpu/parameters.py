"""Calibration parameters of the analytic core timing model.

These constants translate micro-architectural events into exposed cycles.
They are deliberately collected in one frozen dataclass so that:

* the calibration is visible and documented in a single place,
* experiments (and tests) can construct variants explicitly, and
* the ablation benchmarks can explore the same design space the paper's
  "Comparison to Prior Work" discussion covers (window size, store buffer).

The default values were calibrated so that the reproduction's *relative*
results land in the ranges the paper reports (``repro run-all`` prints every
table, and ``benchmarks/bench_paper.py`` checks their shapes); they are not
claimed to be cycle-accurate for any real machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TimingModelParameters:
    """Knobs of the analytic out-of-order timing model."""

    #: Fraction of an L2 hit's latency exposed to the pipeline (most of a
    #: 12-cycle hit is hidden by the out-of-order window).
    l2_hit_exposure: float = 0.25
    #: Baseline fraction of a shared-L3 / cache-to-cache latency exposed when
    #: the instruction window is at its reference size (128 entries).
    l3_exposure: float = 0.35
    #: Baseline fraction of a DRAM access latency exposed at the reference
    #: window size (out-of-order overlap, memory-level parallelism and
    #: prefetching hide the rest).
    memory_exposure: float = 0.35
    #: Queueing pressure on the shared L3, interconnect and memory channels:
    #: the exposed latency of off-core accesses grows by this fraction when
    #: every core of the chip is active (linearly interpolated in between).
    #: This is what separates the paper's ``No DMR`` (8 active cores) from
    #: ``No DMR 2X`` (16 active cores).
    shared_resource_contention: float = 0.6
    #: Reference window size the exposure baselines were calibrated at.
    reference_window_entries: int = 128
    #: Fraction of a store's completion latency that occupies the window
    #: under sequential consistency (stores retire only when the
    #: write-through completes).
    store_exposure_sc: float = 0.35
    #: Same, when a TSO-style store buffer is available (original Reunion
    #: configuration); nearly everything is hidden.
    store_exposure_tso: float = 0.06
    #: Multiplier on window pressure when Reunion's Check stage is active;
    #: the paper observes full structures about twice as often under DMR (the calibrated default is slightly lower because part of that pressure is already captured by the per-instruction check cost).
    dmr_window_pressure: float = 1.55
    #: Extra exposed cycles per committed instruction from the Check stage
    #: hand-shake, expressed as a fraction of the fingerprint-network latency
    #: amortised over the fingerprint interval.
    dmr_check_utilisation: float = 0.3
    #: Fraction of the pipeline depth charged when a serialising instruction
    #: drains the window (both halves: drain plus refill).
    serializing_drain_fraction: float = 1.0
    #: Exposed fraction of the instruction-cache miss latency.
    icache_exposure: float = 1.0

    def validate(self) -> "TimingModelParameters":
        """Check every knob is within a meaningful range; return ``self``."""
        for label, value, low, high in (
            ("l2_hit_exposure", self.l2_hit_exposure, 0.0, 1.0),
            ("l3_exposure", self.l3_exposure, 0.0, 1.0),
            ("memory_exposure", self.memory_exposure, 0.0, 1.0),
            ("store_exposure_sc", self.store_exposure_sc, 0.0, 1.0),
            ("store_exposure_tso", self.store_exposure_tso, 0.0, 1.0),
            ("icache_exposure", self.icache_exposure, 0.0, 1.0),
            ("shared_resource_contention", self.shared_resource_contention, 0.0, 2.0),
            ("dmr_check_utilisation", self.dmr_check_utilisation, 0.0, 4.0),
            ("serializing_drain_fraction", self.serializing_drain_fraction, 0.0, 4.0),
            ("dmr_window_pressure", self.dmr_window_pressure, 1.0, 4.0),
        ):
            if not low <= value <= high:
                raise ConfigurationError(
                    f"timing parameter {label} = {value} outside [{low}, {high}]"
                )
        if self.reference_window_entries < 8:
            raise ConfigurationError("reference window size is unreasonably small")
        return self
