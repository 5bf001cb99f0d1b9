"""Classification of fault-injection outcomes and coverage reporting.

Every trial of a campaign ends in one :class:`FaultOutcome`, and a
:class:`CoverageReport` counts them per protection configuration.  A
campaign cell's result is the same count as a flat ``{outcome name:
count}`` mapping (see :mod:`repro.faults.cells`), so fresh and cached cells
add into byte-identical reports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Dict, Iterable, Mapping, Tuple


class FaultOutcome(Enum):
    """What happened after a fault was injected."""

    #: The fault never became architecturally visible (overwritten, unused).
    MASKED = auto()
    #: DMR fingerprint comparison detected the corruption before retirement.
    DETECTED_DMR = auto()
    #: The PAB blocked the corrupted store before it reached the L2.
    DETECTED_PAB = auto()
    #: The Enter-DMR privileged-register verification caught the corruption.
    DETECTED_TRANSITION = auto()
    #: The corruption reached state owned by the performance application
    #: itself -- tolerated by definition of performance mode.
    CONTAINED_TO_PERFORMANCE_DOMAIN = auto()
    #: Reliable-application or system state was silently corrupted.
    SILENT_CORRUPTION = auto()


#: Outcomes that count as "the system protected reliable state".
PROTECTED_OUTCOMES = frozenset(
    {
        FaultOutcome.MASKED,
        FaultOutcome.DETECTED_DMR,
        FaultOutcome.DETECTED_PAB,
        FaultOutcome.DETECTED_TRANSITION,
        FaultOutcome.CONTAINED_TO_PERFORMANCE_DOMAIN,
    }
)


@dataclass
class CoverageReport:
    """How many of one configuration's injected faults ended in each outcome."""

    configuration: str
    counts: Counter = field(default_factory=Counter)

    def add(self, counts: Mapping[str, int]) -> None:
        """Add a campaign cell's ``{outcome name: count}`` metrics."""
        for name, count in counts.items():
            self.counts[FaultOutcome[name]] += int(count)

    @property
    def total(self) -> int:
        """Number of injected faults."""
        return sum(self.counts.values())

    def count(self, outcome: FaultOutcome) -> int:
        """Number of trials with the given outcome."""
        return self.counts[outcome]

    def outcome_histogram(self) -> Dict[FaultOutcome, int]:
        """Counts of the outcomes that occurred, in declaration order."""
        return {outcome: self.counts[outcome] for outcome in FaultOutcome if self.counts[outcome]}

    @property
    def coverage(self) -> float:
        """Fraction of faults from which reliable state was protected."""
        if not self.total:
            return 1.0
        return sum(self.counts[outcome] for outcome in PROTECTED_OUTCOMES) / self.total

    @property
    def silent_corruption_rate(self) -> float:
        """Fraction of faults that silently corrupted reliable state."""
        if not self.total:
            return 0.0
        return self.count(FaultOutcome.SILENT_CORRUPTION) / self.total

    def summary_rows(self) -> Iterable[Tuple[str, int, float]]:
        """``(outcome, count, fraction)`` rows for reporting, by outcome name."""
        for outcome, count in sorted(
            self.outcome_histogram().items(), key=lambda item: item[0].name
        ):
            yield (outcome.name, count, count / max(1, self.total))
