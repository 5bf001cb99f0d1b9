"""Out-of-order core timing model.

The reproduction uses a quantum-based *analytic* core model rather than a
cycle-by-cycle pipeline simulation: each dynamic instruction is charged an
issue cost plus the exposed portion of any stall it causes (memory latency
not hidden by the instruction window, branch mispredictions, instruction
cache misses, serialising-instruction drains, DMR check/fingerprint delays,
PAB lookups).  The exposure fractions are derived from the configured window
and LSQ sizes through :mod:`repro.cpu.window` and :mod:`repro.cpu.lsq`, so
the ablation experiments (larger window, TSO store buffer) change behaviour
through the same mechanisms the paper discusses.
"""

from repro.cpu.parameters import TimingModelParameters
from repro.cpu.timing import (
    CoreAssignment,
    CoreTimingModel,
    ExecutionMode,
    QuantumResult,
    StopReason,
)

__all__ = [
    "TimingModelParameters",
    "CoreAssignment",
    "CoreTimingModel",
    "ExecutionMode",
    "QuantumResult",
    "StopReason",
]
