"""Scratchpad space for VCPU state.

Mode transitions save and restore VCPU state through a reserved portion of
the physical address space ("scratchpad space", Section 3.4.3).  Each VCPU
gets two slots: one for the state saved by the vocal core and one for the
redundant copy saved by the mute core, so that the Enter-DMR verification can
compare the vocal core's privileged registers against an independently saved
copy.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.addresses import DEFAULT_LINE_SIZE, AddressSpaceLayout, Region, align_up
from repro.errors import ConfigurationError


class ScratchpadManager:
    """Allocates per-VCPU save areas inside the reserved scratchpad region."""

    #: Identifier of the primary (vocal-written) copy of a VCPU's state.
    PRIMARY = "primary"
    #: Identifier of the redundant (mute-written) copy.
    REDUNDANT = "redundant"

    def __init__(
        self,
        layout: AddressSpaceLayout,
        vcpu_state_bytes: int,
        line_size: int = DEFAULT_LINE_SIZE,
    ) -> None:
        if vcpu_state_bytes <= 0:
            raise ConfigurationError("VCPU state size must be positive")
        self.layout = layout
        self.line_size = line_size
        self.slot_bytes = align_up(vcpu_state_bytes, line_size)
        self._region = layout.scratchpad_region()
        self._slots: Dict[Tuple[int, str], Region] = {}
        self._next_index = 0

    @property
    def slot_lines(self) -> int:
        """Number of cache lines occupied by one save slot."""
        return self.slot_bytes // self.line_size

    @property
    def capacity_slots(self) -> int:
        """How many save slots fit in the scratchpad region."""
        return self._region.size // self.slot_bytes

    def slot_for(self, vcpu_id: int, copy: str = PRIMARY) -> Region:
        """Return (allocating on first use) the save area for one VCPU copy."""
        if copy not in (self.PRIMARY, self.REDUNDANT):
            raise ConfigurationError(f"unknown scratchpad copy kind {copy!r}")
        key = (vcpu_id, copy)
        slot = self._slots.get(key)
        if slot is not None:
            return slot
        if self._next_index >= self.capacity_slots:
            raise ConfigurationError(
                "scratchpad region exhausted: "
                f"{self.capacity_slots} slots of {self.slot_bytes} bytes already allocated"
            )
        slot = self.layout.scratchpad_slot(self._next_index, self.slot_bytes)
        self._next_index += 1
        self._slots[key] = slot
        return slot

    def line_addresses(self, vcpu_id: int, copy: str = PRIMARY) -> List[int]:
        """Line-aligned physical addresses covering one VCPU's save area."""
        slot = self.slot_for(vcpu_id, copy)
        return [slot.base + offset for offset in range(0, self.slot_bytes, self.line_size)]
