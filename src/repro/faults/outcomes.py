"""Classification of fault-injection outcomes and coverage reporting.

:class:`TrialRecord` and :class:`CoverageReport` round-trip through plain
JSON dictionaries (:meth:`~TrialRecord.to_dict` / ``from_dict``), which is
what lets the experiment engine cache fault-campaign cells on disk and
reassemble byte-identical coverage reports from any mix of fresh and cached
cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.faults.models import FaultSpec


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
    #: The TLB's own (fault-free) permission check caught the access.
    DETECTED_TLB = auto()
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
        FaultOutcome.DETECTED_TLB,
        FaultOutcome.CONTAINED_TO_PERFORMANCE_DOMAIN,
    }
)


@dataclass(frozen=True)
class TrialRecord:
    """One injected fault and its outcome."""

    spec: FaultSpec
    outcome: FaultOutcome
    configuration: str
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe description of the trial (the cell-result format)."""
        return {
            "spec": self.spec.to_dict(),
            "outcome": self.outcome.name,
            "configuration": self.configuration,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TrialRecord":
        """Rebuild a trial from :meth:`to_dict` output."""
        return cls(
            spec=FaultSpec.from_dict(payload["spec"]),
            outcome=FaultOutcome[str(payload["outcome"])],
            configuration=str(payload["configuration"]),
            detail=str(payload.get("detail", "")),
        )


@dataclass
class CoverageReport:
    """Aggregated outcomes of a fault-injection campaign."""

    configuration: str
    trials: List[TrialRecord] = field(default_factory=list)

    def record(self, trial: TrialRecord) -> None:
        """Append one trial."""
        self.trials.append(trial)

    def extend(self, trials: Iterable[TrialRecord]) -> None:
        """Append a batch of trials (e.g. one campaign cell's records)."""
        self.trials.extend(trials)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe description of the whole report."""
        return {
            "configuration": self.configuration,
            "trials": [trial.to_dict() for trial in self.trials],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CoverageReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            configuration=str(payload["configuration"]),
            trials=[TrialRecord.from_dict(t) for t in payload.get("trials", ())],
        )

    @property
    def total(self) -> int:
        """Number of injected faults."""
        return len(self.trials)

    def count(self, outcome: FaultOutcome) -> int:
        """Number of trials with the given outcome."""
        return sum(1 for trial in self.trials if trial.outcome is outcome)

    def outcome_histogram(self) -> Dict[FaultOutcome, int]:
        """Counts per outcome."""
        histogram: Dict[FaultOutcome, int] = {}
        for trial in self.trials:
            histogram[trial.outcome] = histogram.get(trial.outcome, 0) + 1
        return histogram

    @property
    def coverage(self) -> float:
        """Fraction of faults from which reliable state was protected."""
        if not self.trials:
            return 1.0
        protected = sum(1 for t in self.trials if t.outcome in PROTECTED_OUTCOMES)
        return protected / len(self.trials)

    @property
    def silent_corruption_rate(self) -> float:
        """Fraction of faults that silently corrupted reliable state."""
        if not self.trials:
            return 0.0
        return self.count(FaultOutcome.SILENT_CORRUPTION) / len(self.trials)

    def summary_rows(self) -> Iterable[Tuple[str, int, float]]:
        """``(outcome, count, fraction)`` rows for reporting."""
        for outcome, count in sorted(
            self.outcome_histogram().items(), key=lambda item: item[0].name
        ):
            yield (outcome.name, count, count / max(1, self.total))
