"""Mode-transition state machine (Enter DMR / Leave DMR).

Each core contains a small hardware state machine that performs the steps of
a mode transition (Section 3.4.3).  The engine below reproduces those steps,
charging real hierarchy latencies through the VCPU state-transfer engine, so
that Table 1's asymmetry emerges from the machine configuration:

**Enter DMR** (performance -> reliable):
  synchronise the pair, save the state of the performance VCPU(s) that were
  using the cores, load the reliable VCPU's state onto both cores (or, when
  the same VCPU is merely escalating for a system call, have the mute load
  its redundant privileged copy plus the vocal's registers), and verify the
  vocal's privileged registers against the independently saved copy.

**Leave DMR** (reliable -> performance):
  synchronise, store the reliable VCPU's state (both cores under MMM-TP,
  privileged state only under MMM-IPC), flush the mute core's L2 line by line
  (MMM-TP only -- its cache mixes coherent and incoherent lines), and load
  the state of the performance VCPU(s) about to use the cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict, Optional

from repro.common.stats import StatSet
from repro.config.system import SystemConfig
from repro.errors import TransitionError
from repro.isa.registers import ArchitecturalState
from repro.mem.hierarchy import MemoryHierarchy
from repro.protection.violations import (
    ProtectionViolation,
    ViolationKind,
    ViolationLog,
)
from repro.virt.migration import VcpuStateTransferEngine
from repro.virt.scratchpad import ScratchpadManager
from repro.virt.vcpu import VirtualCPU


class TransitionFlavor(Enum):
    """Which MMM variant is performing the transition."""

    MMM_IPC = auto()
    MMM_TP = auto()


@dataclass
class TransitionBreakdown:
    """Cycle cost of one mode transition, broken down by step."""

    kind: str
    flavor: TransitionFlavor
    sync_cycles: int = 0
    save_cycles: int = 0
    load_cycles: int = 0
    verify_cycles: int = 0
    flush_cycles: int = 0
    pipeline_cycles: int = 0
    verify_failed: bool = False

    @property
    def total_cycles(self) -> int:
        """Total cycles the transition keeps the cores from doing useful work."""
        return (
            self.sync_cycles
            + self.save_cycles
            + self.load_cycles
            + self.verify_cycles
            + self.flush_cycles
            + self.pipeline_cycles
        )


class ModeTransitionEngine:
    """Performs Enter-DMR and Leave-DMR transitions and accounts their cost."""

    #: Cycles to drain and restart both pipelines around a transition.
    PIPELINE_RESTART_CYCLES = 64
    #: Cycles to compare the privileged registers during verification.
    VERIFY_COMPARE_CYCLES = 24

    def __init__(
        self,
        config: SystemConfig,
        hierarchy: MemoryHierarchy,
        transfer_engine: VcpuStateTransferEngine,
        violation_log: Optional[ViolationLog] = None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.transfer_engine = transfer_engine
        # Note: an empty ViolationLog is falsy, so "or" must not be used here.
        self.violation_log = violation_log if violation_log is not None else ViolationLog()
        self.stats = StatSet()
        #: Redundant privileged-register copies saved at Leave-DMR time, used
        #: by the next Enter-DMR verification for the same VCPU.
        self._redundant_privileged: Dict[int, ArchitecturalState] = {}

    # ------------------------------------------------------------------ #
    # Shared pieces
    # ------------------------------------------------------------------ #

    def _sync_cycles(self) -> int:
        return (
            self.config.virtualization.sync_cycles
            + self.config.interconnect.fingerprint_latency
        )

    def _verify(self, vcpu: VirtualCPU, core_id: int, cycle: int) -> tuple[int, bool]:
        """Verify the vocal's privileged registers against the redundant copy."""
        redundant = self._redundant_privileged.get(vcpu.vcpu_id)
        cycles = self.VERIFY_COMPARE_CYCLES
        if redundant is None:
            # First transition for this VCPU: nothing saved yet, so the mute
            # simply adopts the vocal's state (no comparison possible).
            return cycles, False
        ok, mismatches = vcpu.arch_state.verify_privileged_against(redundant)
        if ok:
            return cycles, False
        self.stats.add("verify_failures")
        self.violation_log.record(
            ProtectionViolation(
                kind=ViolationKind.TRANSITION_VERIFY_FAILED,
                cycle=cycle,
                core_id=core_id,
                vcpu_id=vcpu.vcpu_id,
                physical_address=None,
                description=(
                    "privileged registers diverged during performance mode: "
                    + ", ".join(mismatches)
                ),
            )
        )
        # Recovery: reload the corrupted registers from the redundant copy.
        for name in mismatches:
            vcpu.arch_state.privileged[name] = redundant.privileged[name]
        cycles += self.transfer_engine.load_privileged_state(
            core_id, vcpu.vcpu_id, copy=ScratchpadManager.REDUNDANT
        ).cycles
        return cycles, True

    def _snapshot_redundant(self, vcpu: VirtualCPU) -> None:
        self._redundant_privileged[vcpu.vcpu_id] = vcpu.arch_state.copy()

    # ------------------------------------------------------------------ #
    # Enter DMR
    # ------------------------------------------------------------------ #

    def enter_dmr(
        self,
        vocal_core: int,
        mute_core: int,
        vcpu: VirtualCPU,
        outgoing_vocal_vcpu: Optional[VirtualCPU] = None,
        outgoing_mute_vcpu: Optional[VirtualCPU] = None,
        flavor: TransitionFlavor = TransitionFlavor.MMM_TP,
        current_cycle: int = 0,
    ) -> TransitionBreakdown:
        """Bring ``vcpu`` under DMR on (``vocal_core``, ``mute_core``).

        ``outgoing_*_vcpu`` are the performance VCPUs (if any) that were
        independently using the two cores and whose state must be saved first
        -- the MMM-TP case where the hardware scheduler had put another VCPU
        on the mute core.
        """
        if vocal_core == mute_core:
            raise TransitionError("a DMR pair needs two distinct cores")
        breakdown = TransitionBreakdown(kind="enter_dmr", flavor=flavor)
        breakdown.sync_cycles = self._sync_cycles()
        breakdown.pipeline_cycles = self.PIPELINE_RESTART_CYCLES

        # Save the state of whoever was using the cores in performance mode.
        if outgoing_vocal_vcpu is not None:
            result = self.transfer_engine.save_state(vocal_core, outgoing_vocal_vcpu.vcpu_id)
            breakdown.save_cycles += result.cycles
        if outgoing_mute_vcpu is not None:
            result = self.transfer_engine.save_state(mute_core, outgoing_mute_vcpu.vcpu_id)
            breakdown.save_cycles += result.cycles

        if outgoing_vocal_vcpu is None or outgoing_vocal_vcpu.vcpu_id == vcpu.vcpu_id:
            # Same-VCPU escalation (system call from performance mode): the
            # vocal already holds the live state; it stores it so the mute can
            # load and verify it.
            save = self.transfer_engine.save_state(vocal_core, vcpu.vcpu_id)
            breakdown.save_cycles += save.cycles
            load_priv = self.transfer_engine.load_privileged_state(
                mute_core, vcpu.vcpu_id, copy=ScratchpadManager.REDUNDANT
            )
            load_full = self.transfer_engine.load_state(mute_core, vcpu.vcpu_id)
            breakdown.load_cycles += load_priv.cycles + load_full.cycles
        else:
            # Context switch: both cores load the newly scheduled reliable
            # VCPU's state from the scratchpad.
            for core in (vocal_core, mute_core):
                result = self.transfer_engine.load_state(core, vcpu.vcpu_id)
                breakdown.load_cycles += result.cycles

        verify_cycles, failed = self._verify(vcpu, mute_core, current_cycle)
        breakdown.verify_cycles = verify_cycles
        breakdown.verify_failed = failed

        self.stats.add("enter_dmr_transitions")
        self.stats.add("enter_dmr_cycles", breakdown.total_cycles)
        return breakdown

    # ------------------------------------------------------------------ #
    # Leave DMR
    # ------------------------------------------------------------------ #

    def leave_dmr(
        self,
        vocal_core: int,
        mute_core: int,
        vcpu: VirtualCPU,
        incoming_vocal_vcpu: Optional[VirtualCPU] = None,
        incoming_mute_vcpu: Optional[VirtualCPU] = None,
        flavor: TransitionFlavor = TransitionFlavor.MMM_TP,
        current_cycle: int = 0,
    ) -> TransitionBreakdown:
        """Dissolve the DMR pair running ``vcpu`` and hand the cores over.

        ``incoming_*_vcpu`` are the performance VCPUs about to run on the two
        cores (MMM-TP); under MMM-IPC the mute core simply idles and only the
        privileged state needs to be stashed for the next Enter DMR.
        """
        if vocal_core == mute_core:
            raise TransitionError("a DMR pair needs two distinct cores")
        breakdown = TransitionBreakdown(kind="leave_dmr", flavor=flavor)
        breakdown.sync_cycles = self._sync_cycles()
        breakdown.pipeline_cycles = self.PIPELINE_RESTART_CYCLES

        if flavor is TransitionFlavor.MMM_IPC:
            # The cores need only store their privileged state for later use.
            save_vocal = self.transfer_engine.save_privileged_state(
                vocal_core, vcpu.vcpu_id, copy=ScratchpadManager.PRIMARY
            )
            save_mute = self.transfer_engine.save_privileged_state(
                mute_core, vcpu.vcpu_id, copy=ScratchpadManager.REDUNDANT
            )
            breakdown.save_cycles = save_vocal.cycles + save_mute.cycles
        else:
            # MMM-TP: both cores store all state; the mute's cache must then
            # be flushed because it mixes coherent and incoherent lines.
            save_vocal = self.transfer_engine.save_state(vocal_core, vcpu.vcpu_id)
            save_mute = self.transfer_engine.save_state(
                mute_core, vcpu.vcpu_id, copy=ScratchpadManager.REDUNDANT
            )
            breakdown.save_cycles = save_vocal.cycles + save_mute.cycles
            breakdown.flush_cycles = self.hierarchy.flush_l2(mute_core).cycles

        self._snapshot_redundant(vcpu)

        if incoming_vocal_vcpu is not None:
            result = self.transfer_engine.load_state(vocal_core, incoming_vocal_vcpu.vcpu_id)
            breakdown.load_cycles += result.cycles
        if incoming_mute_vcpu is not None:
            result = self.transfer_engine.load_state(mute_core, incoming_mute_vcpu.vcpu_id)
            breakdown.load_cycles += result.cycles

        self.stats.add("leave_dmr_transitions")
        self.stats.add("leave_dmr_cycles", breakdown.total_cycles)
        return breakdown

    # ------------------------------------------------------------------ #
    # Reporting helpers
    # ------------------------------------------------------------------ #

    def reset_stats(self) -> None:
        """Zero the transition counters (start of a measurement window).

        Only the statistics are cleared; the redundant privileged-register
        snapshots are machine state and survive, so verification keeps
        working across the measurement boundary.
        """
        self.stats = StatSet()

    def average_enter_cycles(self) -> float:
        """Average cost of the Enter-DMR transitions performed so far."""
        count = self.stats.get("enter_dmr_transitions")
        if count == 0:
            return 0.0
        return self.stats.get("enter_dmr_cycles") / count

    def average_leave_cycles(self) -> float:
        """Average cost of the Leave-DMR transitions performed so far."""
        count = self.stats.get("leave_dmr_transitions")
        if count == 0:
            return 0.0
        return self.stats.get("leave_dmr_cycles") / count
