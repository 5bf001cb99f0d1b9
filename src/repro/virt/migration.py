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

from repro.config.system import VirtualizationConfig
from repro.errors import TransitionError
from repro.mem.hierarchy import MemoryHierarchy
from repro.virt.scratchpad import ScratchpadManager


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one state save or load."""

    cycles: int
    lines: int
    total_latency: int


class VcpuStateTransferEngine:
    """Moves VCPU state between cores via the scratchpad."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        scratchpad: ScratchpadManager,
        config: VirtualizationConfig,
        overlap_factor: float = 4.0,
        per_line_beat: float = 1.0,
    ) -> None:
        if overlap_factor < 1.0:
            raise TransitionError("overlap factor must be at least 1")
        self.hierarchy = hierarchy
        self.scratchpad = scratchpad
        self.config = config
        self.overlap_factor = overlap_factor
        self.per_line_beat = per_line_beat

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
        cycles = int(round(total_latency / self.overlap_factor)) + int(
            round(len(addresses) * self.per_line_beat)
        )
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

    def migrate(self, from_core: int, to_core: int, vcpu_id: int) -> TransferResult:
        """Move a VCPU between cores (save on one core, load on the other)."""
        save = self.save_state(from_core, vcpu_id)
        load = self.load_state(to_core, vcpu_id)
        return TransferResult(
            cycles=save.cycles + load.cycles,
            lines=save.lines + load.lines,
            total_latency=save.total_latency + load.total_latency,
        )
