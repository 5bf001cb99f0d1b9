"""Common utilities shared by every subsystem of the reproduction.

The package deliberately contains only small, dependency-free building
blocks:

* :mod:`repro.common.rng` -- deterministic random number generation,
* :mod:`repro.common.addresses` -- address, page and cache-line arithmetic,
* :mod:`repro.common.stats` -- counters, means and confidence intervals.
"""

from repro.common.addresses import (
    AddressSpaceLayout,
    Region,
    align_down,
    align_up,
)
from repro.common.rng import DeterministicRng
from repro.common.stats import (
    ConfidenceInterval,
    StatSet,
    confidence_interval_95,
)

__all__ = [
    "AddressSpaceLayout",
    "Region",
    "align_down",
    "align_up",
    "DeterministicRng",
    "ConfidenceInterval",
    "StatSet",
    "confidence_interval_95",
]
