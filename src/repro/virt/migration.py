"""VCPU state save/restore through the cache hierarchy.

The hardware virtualisation layer moves VCPU state (about 2.3 KB on SPARC)
between cores by storing it to, and loading it from, the scratchpad region of
cacheable physical memory.  The transfers use the normal coherence protocol
-- even on a mute core, which is why a mute's cache ends up holding a mixture
of coherent and incoherent lines (Section 3.4.3).

The cycle cost of these transfers is what dominates the *Enter DMR* half of
Table 1; :class:`VcpuStateTransferEngine` performs the actual hierarchy
accesses (so cache and directory state stay realistic) and converts the
summed latencies into cycles assuming a small number of overlapped
outstanding transfers, as a simple hardware state machine would sustain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.hierarchy import MemoryHierarchy
from repro.virt.scratchpad import ScratchpadManager

#: Line transfers the state machine keeps in flight: a transfer costs its
#: summed access latency over this, plus ``LINE_BEAT_CYCLES`` per line.
TRANSFER_OVERLAP = 2.0
#: Cycles each moved line adds on top of the overlapped latency.
LINE_BEAT_CYCLES = 1


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one state save or load."""

    cycles: int
    lines: int
    total_latency: int


class VcpuStateTransferEngine:
    """Moves VCPU state between cores via the scratchpad."""

    def __init__(self, hierarchy: MemoryHierarchy, scratchpad: ScratchpadManager) -> None:
        self.hierarchy = hierarchy
        self.scratchpad = scratchpad

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _transfer(
        self,
        core_id: int,
        vcpu_id: int,
        copy: str,
        is_store: bool,
        coherent: bool,
        lines: int | None = None,
    ) -> TransferResult:
        addresses = self.scratchpad.line_addresses(vcpu_id, copy)
        if lines is not None:
            addresses = addresses[: max(1, lines)]
        total_latency = 0
        for address in addresses:
            result = self.hierarchy.access(
                core_id, address, is_store=is_store, coherent=coherent
            )
            total_latency += result.latency
        cycles = int(round(total_latency / TRANSFER_OVERLAP)) + len(addresses) * LINE_BEAT_CYCLES
        return TransferResult(cycles=cycles, lines=len(addresses), total_latency=total_latency)

    # ------------------------------------------------------------------ #
    # Public operations
    # ------------------------------------------------------------------ #

    def save_state(
        self, core_id: int, vcpu_id: int, copy: str = ScratchpadManager.PRIMARY
    ) -> TransferResult:
        """Store a VCPU's full architected state from ``core_id`` to the scratchpad.

        State saves are always performed coherently -- even from a mute core
        -- which is why the mute's cache needs the per-line coherent bit.
        """
        return self._transfer(core_id, vcpu_id, copy, is_store=True, coherent=True)

    def load_state(
        self, core_id: int, vcpu_id: int, copy: str = ScratchpadManager.PRIMARY
    ) -> TransferResult:
        """Load a VCPU's full architected state from the scratchpad into ``core_id``."""
        return self._transfer(core_id, vcpu_id, copy, is_store=False, coherent=True)

    def save_privileged_state(
        self, core_id: int, vcpu_id: int, copy: str = ScratchpadManager.REDUNDANT
    ) -> TransferResult:
        """Store only the privileged portion of a VCPU's state (a few lines)."""
        return self._transfer(
            core_id, vcpu_id, copy, is_store=True, coherent=True,
            lines=self._privileged_lines(),
        )

    def load_privileged_state(
        self, core_id: int, vcpu_id: int, copy: str = ScratchpadManager.REDUNDANT
    ) -> TransferResult:
        """Load only the privileged portion of a VCPU's state."""
        return self._transfer(
            core_id, vcpu_id, copy, is_store=False, coherent=True,
            lines=self._privileged_lines(),
        )

    def _privileged_lines(self) -> int:
        # Privileged state is a small fraction of the 2.3 KB VCPU state; two
        # cache lines comfortably hold the SPARC privileged registers.
        return max(1, min(2, self.scratchpad.slot_lines))
