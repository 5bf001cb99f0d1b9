"""Instruction-window occupancy and latency-hiding model.

The analytic core model does not track individual window entries.  Instead,
:class:`InstructionWindowModel` converts the configured window size (and the
extra pressure Reunion's Check stage creates) into *exposure fractions*: the
share of a long-latency event that the window cannot hide.  A larger window
hides more latency; holding instructions longer (DMR) effectively shrinks the
window, which is the first of the three Reunion overhead sources the paper
identifies (Section 5.1, "Instruction Window Utilization").
"""

from __future__ import annotations

from repro.config.system import CoreConfig
from repro.cpu.parameters import TimingModelParameters


class InstructionWindowModel:
    """Derives latency-exposure fractions from the window configuration."""

    def __init__(self, core_config: CoreConfig, parameters: TimingModelParameters) -> None:
        self.core_config = core_config
        self.parameters = parameters.validate()

    def effective_entries(self, dmr_active: bool) -> float:
        """Window entries effectively available for latency hiding.

        Under DMR, instructions wait in the Check stage before releasing
        their window resources, so the effective window shrinks by the
        configured pressure factor.
        """
        entries = float(self.core_config.window_entries)
        if dmr_active:
            entries /= self.parameters.dmr_window_pressure
        return max(8.0, entries)

    def _scale(self, base_exposure: float, dmr_active: bool) -> float:
        reference = float(self.parameters.reference_window_entries)
        effective = self.effective_entries(dmr_active)
        scaled = base_exposure * (reference / effective)
        return min(1.0, max(0.05, scaled))

    def l2_exposure(self, dmr_active: bool) -> float:
        """Exposed fraction of an L2 hit latency.

        L2 hits are short enough that even a Check-stage-delayed window hides
        them, so the DMR pressure factor is not applied here (it only affects
        off-core accesses, which is where Reunion's window pressure actually
        bites).
        """
        return self._scale(self.parameters.l2_hit_exposure, dmr_active=False)

    def l3_exposure(self, dmr_active: bool) -> float:
        """Exposed fraction of an L3 or cache-to-cache latency."""
        return self._scale(self.parameters.l3_exposure, dmr_active)

    def memory_exposure(self, dmr_active: bool) -> float:
        """Exposed fraction of a DRAM access latency."""
        return self._scale(self.parameters.memory_exposure, dmr_active)

    def exposure_for_level(self, level: str, dmr_active: bool) -> float:
        """Exposure fraction for a hierarchy access classified by level."""
        if level == "l1":
            return 0.0
        if level == "l2":
            return self.l2_exposure(dmr_active)
        if level in ("l3", "c2c"):
            return self.l3_exposure(dmr_active)
        return self.memory_exposure(dmr_active)

    def drain_cycles(self, dmr_active: bool) -> float:
        """Cycles to drain the window for a serialising instruction.

        Approximated as the time to retire a half-full window at the issue
        width, inflated by the DMR pressure factor when the Check stage is
        active (younger instructions must clear Check before the serialising
        instruction may execute).
        """
        occupancy = self.effective_entries(dmr_active=False) * 0.5
        drain = occupancy / max(1, self.core_config.issue_width)
        if dmr_active:
            drain *= self.parameters.dmr_window_pressure
        return drain * self.parameters.serializing_drain_fraction
