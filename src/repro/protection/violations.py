"""Protection-violation events.

A blocked store is not a Python exception: it is an architectural event the
hardware reports to system software, which may kill the offending
application, retry, or log it.  The simulator records each event in a
:class:`ViolationLog` so experiments and the fault-injection campaign can
reason about what was caught, where, and on whose behalf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import List, Optional


class ViolationKind(Enum):
    """Which mechanism detected (or failed to detect) an illegal access."""

    #: The TLB's own permission check rejected the access (fault-free path).
    TLB_DENIED = auto()
    #: The PAB blocked a store whose physical page is reliable-only.
    PAB_BLOCKED = auto()
    #: DMR fingerprint comparison caught corrupted execution before retirement.
    DMR_DETECTED = auto()
    #: The privileged-register verification during an Enter-DMR transition
    #: caught a corrupted register.
    TRANSITION_VERIFY_FAILED = auto()
    #: Nothing caught the access: reliable state was silently corrupted.
    SILENT_CORRUPTION = auto()


@dataclass(frozen=True)
class ProtectionViolation:
    """One detected or missed illegal access."""

    kind: ViolationKind
    cycle: int
    core_id: int
    vcpu_id: Optional[int]
    physical_address: Optional[int]
    description: str = ""


@dataclass
class ViolationLog:
    """An append-only log of protection events for one simulation."""

    events: List[ProtectionViolation] = field(default_factory=list)

    def record(self, violation: ProtectionViolation) -> None:
        """Append one event."""
        self.events.append(violation)

    def count(self, kind: Optional[ViolationKind] = None) -> int:
        """Number of events (optionally of one kind)."""
        if kind is None:
            return len(self.events)
        return sum(1 for event in self.events if event.kind is kind)

    @property
    def silent_corruptions(self) -> int:
        """Number of accesses nothing caught (the outcome MMM must avoid)."""
        return self.count(ViolationKind.SILENT_CORRUPTION)

    def __len__(self) -> int:
        return len(self.events)
