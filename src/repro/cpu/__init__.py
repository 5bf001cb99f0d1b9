"""Out-of-order core timing model.

The reproduction uses a quantum-based *analytic* core model rather than a
cycle-by-cycle pipeline simulation: each dynamic instruction is charged an
issue cost plus the exposed portion of any stall it causes (memory latency
not hidden by the instruction window, branch mispredictions, instruction
cache misses, serialising-instruction drains, DMR check/fingerprint delays,
PAB lookups).  One cost function, :func:`repro.cpu.timing.quantum_costs`,
derives the exposure fractions and the serialising-instruction cost from the
configured window and LSQ sizes and the consistency model, so the ablation
experiments (larger window, TSO store buffer) change behaviour through the
same mechanisms the paper discusses.
"""

from repro.cpu.timing import (
    CoreAssignment,
    CoreTimingModel,
    ExecutionMode,
    QuantumResult,
    StopReason,
)

__all__ = [
    "CoreAssignment",
    "CoreTimingModel",
    "ExecutionMode",
    "QuantumResult",
    "StopReason",
]
