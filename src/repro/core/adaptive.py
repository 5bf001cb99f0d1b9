"""Adaptive (duty-cycled) reliability — the paper's future-work extension.

Section 3.3 of the paper deliberately leaves the OS/application interface for
the per-VCPU reliability register undefined and notes that "some applications
may desire a finer granularity of control"; the related-work discussion points
at Walcott et al., who toggle redundancy on and off to bound a program's
architectural vulnerability rather than protecting it continuously.

This module implements that extension on top of the MMM machinery:

* :class:`AdaptiveReliabilityController` tracks, per VCPU, how much committed
  work has gone *unprotected* and decides each quantum whether the VCPU
  should run under DMR, so that the long-run protected fraction of its
  instructions stays at (or above) a target duty cycle.
* :class:`AdaptiveMmmPolicy` is a drop-in mapping policy (registered as
  ``"mmm-adaptive"``) that applies those decisions before delegating the
  actual placement to the MMM-TP logic: VCPUs the controller wants protected
  get a vocal/mute pair this quantum, the others run alone in performance
  mode with the PAB guarding their stores.

The result sits between the two static extremes the paper evaluates: a VCPU
with ``protected_fraction=1.0`` behaves like the always-DMR baseline, one
with ``protected_fraction=0.0`` like MMM-TP's performance mode, and anything
in between trades throughput for vulnerability in a controlled way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.core.policies import MmmTpPolicy, PairFactory, register_policy
from repro.errors import ConfigurationError
from repro.virt.scheduler import CoreAllocator, MappingPlan
from repro.virt.vcpu import ReliabilityMode, VirtualCPU


@dataclass
class _VcpuProtectionState:
    """Book-keeping the controller maintains for one VCPU."""

    last_seen_instructions: int = 0
    protected_instructions: int = 0
    unprotected_instructions: int = 0
    #: Decision taken for the quantum currently (or last) executed.
    protect_this_quantum: bool = True

    @property
    def observed_instructions(self) -> int:
        """Instructions attributed to either bucket so far."""
        return self.protected_instructions + self.unprotected_instructions

    def protected_fraction(self) -> float:
        """Fraction of observed instructions that ran under DMR."""
        observed = self.observed_instructions
        if observed == 0:
            return 1.0
        return self.protected_instructions / observed


@dataclass
class AdaptiveReliabilityController:
    """Decides, per quantum, which VCPUs must run redundantly.

    Parameters
    ----------
    target_protected_fraction:
        Long-run fraction of each VCPU's committed instructions that must be
        executed under DMR.  ``1.0`` degenerates to always-DMR, ``0.0`` to
        pure performance mode.
    hysteresis:
        Dead-band around the target that prevents the controller from
        flapping between modes every quantum.
    """

    target_protected_fraction: float = 0.5
    hysteresis: float = 0.05
    _states: Dict[int, _VcpuProtectionState] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.target_protected_fraction <= 1.0:
            raise ConfigurationError("target_protected_fraction must be in [0, 1]")
        if not 0.0 <= self.hysteresis <= 0.5:
            raise ConfigurationError("hysteresis must be in [0, 0.5]")

    def _state_for(self, vcpu: VirtualCPU) -> _VcpuProtectionState:
        return self._states.setdefault(vcpu.vcpu_id, _VcpuProtectionState())

    def _absorb_progress(self, vcpu: VirtualCPU, state: _VcpuProtectionState) -> None:
        """Attribute instructions committed since the last look to the bucket
        selected by the previous decision."""
        committed = vcpu.committed_instructions
        delta = committed - state.last_seen_instructions
        if delta < 0:
            # The simulator reset its measurement counters (end of warmup);
            # restart the attribution from the new baseline.
            state.last_seen_instructions = committed
            return
        if delta == 0:
            return
        if state.protect_this_quantum:
            state.protected_instructions += delta
        else:
            state.unprotected_instructions += delta
        state.last_seen_instructions = committed

    def wants_protection(self, vcpu: VirtualCPU) -> bool:
        """Decide whether ``vcpu`` should run under DMR for the next quantum."""
        state = self._state_for(vcpu)
        self._absorb_progress(vcpu, state)
        if state.observed_instructions == 0:
            # Nothing attributed yet: start protected (safety-first default)
            # unless the target explicitly asks for no protection at all.
            state.protect_this_quantum = self.target_protected_fraction > 0.0
            return state.protect_this_quantum
        fraction = state.protected_fraction()
        if state.protect_this_quantum:
            # Stay protected until the achieved fraction clears the target by
            # the hysteresis margin.
            decision = fraction < self.target_protected_fraction + self.hysteresis
        else:
            # Return to DMR as soon as the achieved fraction dips below the
            # target minus the margin.
            decision = fraction < self.target_protected_fraction - self.hysteresis
        if self.target_protected_fraction == 0.0:
            decision = False
        elif self.target_protected_fraction == 1.0:
            decision = True
        state.protect_this_quantum = decision
        return decision

    def protected_fraction(self, vcpu_id: int) -> float:
        """Achieved protected fraction for one VCPU (1.0 if never seen)."""
        state = self._states.get(vcpu_id)
        return state.protected_fraction() if state is not None else 1.0

    def report(self) -> Dict[int, float]:
        """Achieved protected fraction per VCPU."""
        return {
            vcpu_id: state.protected_fraction()
            for vcpu_id, state in sorted(self._states.items())
        }


class AdaptiveMmmPolicy(MmmTpPolicy):
    """MMM-TP with per-quantum, duty-cycled reliability decisions.

    VCPUs whose reliability register is ``RELIABLE`` are always protected and
    VCPUs set to ``PERFORMANCE`` never are, exactly as under MMM-TP; VCPUs in
    ``PERFORMANCE_USER_ONLY`` mode are handed to the
    :class:`AdaptiveReliabilityController`, which toggles them between DMR
    and performance execution so their protected duty cycle meets the target.
    """

    name = "mmm-adaptive"
    mixed_mode = True
    #: The controller accumulates protection debt every quantum, so the plan
    #: is *not* a pure function of the VCPUs' current DMR requirements and
    #: may re-pair a VM between quanta with no event in between.
    stateless_plans = False

    def __init__(
        self, controller: AdaptiveReliabilityController | None = None
    ) -> None:
        self.controller = controller or AdaptiveReliabilityController()

    def _needs_dmr(self, vcpu: VirtualCPU) -> bool:
        if vcpu.mode_register is ReliabilityMode.RELIABLE:
            return True
        if vcpu.mode_register is ReliabilityMode.PERFORMANCE:
            return False
        return self.controller.wants_protection(vcpu)

    def plan_quantum(
        self,
        vcpus: Sequence[VirtualCPU],
        allocator: CoreAllocator,
        pair_factory: PairFactory,
    ) -> MappingPlan:
        plan = MappingPlan()
        protected_ids = {vcpu.vcpu_id for vcpu in vcpus if self._needs_dmr(vcpu)}
        protected = [vcpu for vcpu in vcpus if vcpu.vcpu_id in protected_ids]
        unprotected = [vcpu for vcpu in vcpus if vcpu.vcpu_id not in protected_ids]

        from repro.cpu.timing import ExecutionMode  # local import avoids a cycle at module load

        for vcpu in protected:
            placement = self._pair_placement(vcpu, allocator, pair_factory)
            if placement is None:
                plan.paused_vcpu_ids.append(vcpu.vcpu_id)
            else:
                plan.placements.append(placement)
        for vcpu in unprotected:
            placement = self._single_placement(vcpu, allocator, ExecutionMode.PERFORMANCE)
            if placement is None:
                plan.paused_vcpu_ids.append(vcpu.vcpu_id)
            else:
                plan.placements.append(placement)
        return plan


# Make the adaptive policy constructible through the normal registry
# (policy_by_name("mmm-adaptive")), like the four policies from the paper.
register_policy(AdaptiveMmmPolicy)
