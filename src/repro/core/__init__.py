"""The Mixed-Mode Multicore (MMM) -- the paper's primary contribution.

This package assembles the substrates (cores, caches, DMR, protection,
virtualisation) into a machine that can run reliable and performance
applications simultaneously:

* :mod:`repro.core.transitions` -- the Enter-DMR / Leave-DMR state machine
  with full cycle accounting (Table 1),
* :mod:`repro.core.policies` -- VCPU-to-core mapping policies: the DMR and
  non-DMR baselines, MMM-IPC, and MMM-TP,
* :mod:`repro.core.machine` -- the machine builder wiring every subsystem
  together from a :class:`~repro.config.system.SystemConfig` and VM specs,
* :mod:`repro.core.mmm` -- the :class:`MixedModeMulticore` façade, the
  recommended public entry point.
"""

from repro.core.machine import MixedModeMachine, VmSpec
from repro.core.mmm import MixedModeMulticore
from repro.core.policies import (
    AlwaysDmrPolicy,
    MappingPolicy,
    MmmIpcPolicy,
    MmmTpPolicy,
    NoDmrPolicy,
    policy_by_name,
)
from repro.core.transitions import ModeTransitionEngine, TransitionBreakdown, TransitionFlavor

__all__ = [
    "MixedModeMachine",
    "VmSpec",
    "MixedModeMulticore",
    "AlwaysDmrPolicy",
    "MappingPolicy",
    "MmmIpcPolicy",
    "MmmTpPolicy",
    "NoDmrPolicy",
    "policy_by_name",
    "ModeTransitionEngine",
    "TransitionBreakdown",
    "TransitionFlavor",
]
