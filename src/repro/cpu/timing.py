"""Quantum-based analytic core timing model.

:class:`CoreTimingModel` executes a slice of one VCPU's synthetic instruction
stream on a physical core (or on a DMR pair) and returns how many cycles the
slice consumed, how many user and OS instructions were committed, and why
the slice stopped.  The simulator drives one such call per VCPU per
scheduling quantum.

The model charges, per dynamic instruction:

* an issue cost of ``1 / issue_width`` cycles;
* branch misprediction and instruction-cache-miss penalties drawn from the
  workload profile;
* for memory operations: TLB translate latency, the *exposed* portion of the
  data access latency (exposure depends on the level that served the access,
  the instruction window size, and whether Reunion's Check stage is active),
  and -- for stores under sequential consistency -- the portion of the
  write-through latency that keeps the store in the window;
* for serialising instructions: a window drain plus, under DMR, the
  fingerprint validation round trip;
* under DMR: the amortised fingerprint-exchange cost per instruction, the
  slower of the vocal/mute data accesses (the mute fetches through its own,
  incoherent hierarchy and frequently pays a 3-hop cache-to-cache transfer),
  and any recovery penalty from fingerprint mismatches;
* in performance mode within an MMM: the PAB store-permission check
  (parallel lookups are free on a hit; serial lookups and PAT fills expose
  latency on the store path).

The constants of these charges that depend only on the configuration and
the DMR flag (exposures, the Check-stage cost, the serialising-instruction
cost) come from one cost function, :func:`quantum_costs`, whose calibration
is the module's upper-case constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict, Optional, Protocol, Sequence

from repro.config.system import ConsistencyModel, SystemConfig
from repro.dmr.reunion import CheckOutcome, ReunionPair
from repro.errors import SimulationError
from repro.isa.instructions import Instruction, InstructionClass, PrivilegeLevel
from repro.mem.hierarchy import MemoryHierarchy
from repro.protection.pab import ProtectionAssistanceBuffer
from repro.protection.violations import (
    ProtectionViolation,
    ViolationKind,
    ViolationLog,
)
from repro.tlb.tlb import _PRIVILEGED_ONLY, _USER_WRITE, TranslationLookasideBuffer
from repro.workloads.generator import SyntheticWorkload

# Calibration of the analytic model.  The values were calibrated so that the
# reproduction's *relative* results land in the ranges the paper reports
# (``repro run-all`` prints every table, ``benchmarks/bench_paper.py`` checks
# their shapes); they are not claimed to be cycle-accurate for any machine.

#: Exposed fraction of an L2 hit's latency at the reference window size
#: (the out-of-order window hides most of a 12-cycle hit).
L2_HIT_EXPOSURE = 0.25
#: Exposed fraction of a shared-L3 or cache-to-cache latency at the
#: reference window size.
L3_EXPOSURE = 0.35
#: Exposed fraction of a DRAM latency at the reference window size
#: (out-of-order overlap, memory-level parallelism and prefetching hide the
#: rest).
MEMORY_EXPOSURE = 0.35
#: Window size the three exposures above were calibrated at.
REFERENCE_WINDOW_ENTRIES = 128
#: Growth of the exposed off-core latency when every core of the chip is
#: active (linear in the active cores from one): queueing on the shared L3,
#: interconnect and memory channels.  It separates the paper's ``No DMR``
#: (8 active cores) from ``No DMR 2X`` (16).
SHARED_RESOURCE_CONTENTION = 0.6
#: Exposed fraction of a store's completion latency under sequential
#: consistency (a store retires only when its write-through completes).
STORE_EXPOSURE_SC = 0.35
#: The same with a TSO store buffer (the original Reunion configuration),
#: which hides nearly all of it.
STORE_EXPOSURE_TSO = 0.06
#: Factor by which Reunion's Check stage shrinks the effective window.  The
#: paper sees full structures about twice as often under DMR; the value is
#: lower because the per-instruction Check cost already carries part of it.
DMR_WINDOW_PRESSURE = 1.55
#: Exposed Check-stage cycles per committed instruction, as a fraction of
#: the fingerprint latency amortised over the fingerprint interval.
DMR_CHECK_UTILISATION = 0.3
#: Exposed fraction of a TLB miss's page-walk latency.
TLB_MISS_EXPOSURE = 0.7


class ExecutionMode(Enum):
    """How a VCPU is currently being executed."""

    #: Non-DMR execution in a machine that never mixes modes (the paper's
    #: ``No DMR`` baselines); the PAB is not consulted.
    BASELINE = auto()
    #: Non-DMR execution inside a mixed-mode machine; every store is
    #: re-validated by the PAB.
    PERFORMANCE = auto()
    #: Redundant execution on a Reunion vocal/mute pair.
    DMR = auto()


class StopReason(Enum):
    """Why :meth:`CoreTimingModel.run_quantum` returned."""

    BUDGET_EXHAUSTED = auto()
    OS_ENTRY = auto()
    OS_EXIT = auto()


class FaultHook(Protocol):
    """Interface the fault injector exposes to the timing model."""

    def perturb_store_address(
        self, core_id: int, mode: ExecutionMode, physical_address: int
    ) -> int:
        """Possibly redirect a store's physical address (TLB/datapath fault)."""

    def corrupt_execution(self, core_id: int, mode: ExecutionMode) -> bool:
        """Return True when this instruction's result is corrupted on ``core_id``."""


@dataclass(frozen=True)
class CoreAssignment:
    """Where and how a VCPU executes during one quantum."""

    mode: ExecutionMode
    primary_core: int
    secondary_core: Optional[int] = None
    reunion_pair: Optional[ReunionPair] = None

    def __post_init__(self) -> None:
        if self.mode is ExecutionMode.DMR:
            if self.secondary_core is None:
                raise SimulationError("DMR execution needs a secondary (mute) core")
            if self.secondary_core == self.primary_core:
                raise SimulationError("DMR execution needs two distinct cores")
        elif self.secondary_core is not None:
            raise SimulationError("non-DMR execution must not name a secondary core")

    @property
    def cores(self) -> Sequence[int]:
        """All physical cores consumed by this assignment."""
        if self.secondary_core is None:
            return (self.primary_core,)
        return (self.primary_core, self.secondary_core)


@dataclass
class QuantumResult:
    """Outcome of running one VCPU for one quantum."""

    cycles: int
    instructions: int
    user_instructions: int
    os_instructions: int
    stop_reason: StopReason


@dataclass(frozen=True)
class QuantumCosts:
    """The cost constants of one configuration's cores in one mode."""

    #: Exposed Check-stage cycles per committed instruction (0 without DMR).
    check_cycles: float
    #: Exposed fraction of a store's completion latency.
    store_exposure: float
    #: Multiplier (at least 1) on load exposure from a small load queue.
    load_pressure: float
    #: Exposed cycles of one serialising instruction.
    serializing_cycles: float
    #: Exposed fraction of a load's latency, by the level that served it.
    load_exposures: Dict[str, float]
    #: Exposed fraction of a TLB miss's latency.
    tlb_miss_exposure: float


def quantum_costs(config: SystemConfig, dmr: bool) -> QuantumCosts:
    """The cost constants of ``config``'s cores, with or without DMR.

    They carry the three sources of Reunion's IPC loss that the paper
    identifies (Section 5.1):

    * **Instruction window.**  The model tracks no window entries: the
      window's size sets the share of a long-latency load it cannot hide,
      scaled from the reference window and kept within [0.05, 1].  Under DMR,
      instructions wait in the Check stage before releasing their entries,
      so the effective window shrinks by ``DMR_WINDOW_PRESSURE``.  That only
      bites off-core accesses: an L2 hit is short enough that even a
      Check-delayed window hides it.
    * **Load/store queue.**  Under sequential consistency a store holds its
      window and store-queue entry until the write-through completes; DMR
      delays the commit point that frees it by a further 40%, and a store
      queue smaller than 32 entries exposes proportionally more.  A TSO
      store buffer hides nearly all of it.  A load queue smaller than 32
      entries multiplies the load exposure.
    * **Serialising instructions.**  One waits for a half-full window to
      retire at the issue width, then drains the pipeline.  Under DMR,
      younger instructions must clear Check first (the wait grows by the
      window pressure), and the instruction is validated by one fingerprint
      exchange plus the Check and serialising-check hand-shakes before
      younger instructions may enter the pipeline.
    """
    core = config.core
    window = max(8.0, float(core.window_entries))
    check_window = (
        max(8.0, float(core.window_entries) / DMR_WINDOW_PRESSURE) if dmr else window
    )
    reference = float(REFERENCE_WINDOW_ENTRIES)
    l2 = min(1.0, max(0.05, L2_HIT_EXPOSURE * (reference / window)))
    l3 = min(1.0, max(0.05, L3_EXPOSURE * (reference / check_window)))
    memory = min(1.0, max(0.05, MEMORY_EXPOSURE * (reference / check_window)))

    if core.consistency is ConsistencyModel.TSO:
        store_exposure = STORE_EXPOSURE_TSO
    else:
        store_exposure = STORE_EXPOSURE_SC
        if dmr:
            store_exposure = min(1.0, store_exposure * 1.4)
        store_exposure = min(
            1.0, store_exposure * (32.0 / max(4.0, float(core.lsq_store_entries)))
        )

    serializing = window * 0.5 / max(1, core.issue_width)
    if dmr:
        serializing *= DMR_WINDOW_PRESSURE
    serializing += core.serializing_drain_cycles
    check_cycles = 0.0
    if dmr:
        serializing += float(
            config.interconnect.fingerprint_latency
            + config.reunion.serializing_check_cycles
            + config.reunion.check_stage_cycles
        )
        check_cycles = (
            config.interconnect.fingerprint_latency / config.reunion.fingerprint_interval
        ) * DMR_CHECK_UTILISATION
    return QuantumCosts(
        check_cycles=check_cycles,
        store_exposure=store_exposure,
        load_pressure=max(
            1.0, 32.0 / max(4.0, float(core.lsq_load_entries)) * 0.5 + 0.5
        ),
        serializing_cycles=serializing,
        load_exposures={"l1": 0.0, "l2": l2, "l3": l3, "c2c": l3, "memory": memory},
        tlb_miss_exposure=TLB_MISS_EXPOSURE,
    )


class CoreTimingModel:
    """Analytic timing model shared by every core of the machine."""

    def __init__(
        self,
        config: SystemConfig,
        hierarchy: MemoryHierarchy,
        tlbs: Sequence[TranslationLookasideBuffer],
        pabs: Sequence[ProtectionAssistanceBuffer],
        violation_log: ViolationLog,
        fault_hook: Optional[FaultHook] = None,
    ) -> None:
        config.validate()
        if len(tlbs) != config.num_cores:
            raise SimulationError(
                f"expected {config.num_cores} TLBs, got {len(tlbs)}"
            )
        if len(pabs) != config.num_cores:
            raise SimulationError(
                f"expected {config.num_cores} PABs, got {len(pabs)}"
            )
        self.config = config
        self.hierarchy = hierarchy
        self.tlbs = list(tlbs)
        self.pabs = list(pabs)
        self.violation_log = violation_log
        self.fault_hook = fault_hook

    # ------------------------------------------------------------------ #
    # Per-instruction cost components
    # ------------------------------------------------------------------ #

    def _branch_cost(self, instruction: Instruction) -> float:
        # Deterministic pseudo-random misprediction decision derived from the
        # instruction's synthetic result, so runs are reproducible.
        threshold = int(self.config.core.branch_mispredict_rate * 256)
        if (instruction.result & 0xFF) < threshold:
            return float(self.config.core.branch_penalty_cycles)
        return 0.0

    def _icache_cost(self, workload: SyntheticWorkload, privilege: PrivilegeLevel) -> float:
        mpki = workload.profile.icache_mpki_for(privilege)
        return (mpki / 1000.0) * self.config.l2.hit_latency

    def _record_violation(
        self,
        kind: ViolationKind,
        cycle: int,
        core_id: int,
        vcpu_id: Optional[int],
        address: Optional[int],
        description: str,
    ) -> None:
        self.violation_log.record(
            ProtectionViolation(
                kind=kind,
                cycle=cycle,
                core_id=core_id,
                vcpu_id=vcpu_id,
                physical_address=address,
                description=description,
            )
        )

    def _charge_check(
        self,
        outcome: Optional[CheckOutcome],
        cycles: float,
        start_cycle: int,
        core_id: int,
        vcpu_id: Optional[int],
        address: Optional[int],
    ) -> float:
        """``cycles`` after one fingerprint comparison of a DMR pair.

        A match (or no comparison) costs nothing.  A mismatch is a
        detection: it adds the pair's recovery penalty and logs
        ``DMR_DETECTED`` at the cycle the recovery ends.
        """
        if outcome is None or outcome.matched:
            return cycles
        cycles += outcome.penalty_cycles
        self._record_violation(
            ViolationKind.DMR_DETECTED,
            start_cycle + int(cycles),
            core_id,
            vcpu_id,
            address,
            "fingerprint mismatch detected an injected fault",
        )
        return cycles

    # ------------------------------------------------------------------ #
    # Quantum execution
    # ------------------------------------------------------------------ #

    def run_quantum(
        self,
        workload: SyntheticWorkload,
        assignment: CoreAssignment,
        cycle_budget: int,
        start_cycle: int = 0,
        vcpu_id: Optional[int] = None,
        stop_on_os_entry: bool = False,
        stop_on_os_exit: bool = False,
        active_cores: Optional[int] = None,
    ) -> QuantumResult:
        """Run one VCPU until the cycle budget (or a stop condition) is reached.

        ``active_cores`` is the number of physical cores concurrently doing
        work this quantum (including this VCPU's own cores); it drives the
        shared-resource contention term applied to off-core access latencies.

        This is the phase-blocked hot-path implementation.  Its outer loop
        takes each phase-boundary trap from the workload
        (:meth:`SyntheticWorkload.next_instruction`) and charges it as the
        serialising OS instruction it is, with the stop checks; its inner
        loop runs the rest of one user or OS phase, synthesising each
        instruction itself with everything that depends only on the phase
        (the mix thresholds, the address-draw table, the I-cache cost, the
        TLB permission rule) bound once, the data-address draw of
        :meth:`AddressStreamModel.next_address` inlined, and the phase's
        instruction count added when it ends.  The draws from each of the
        workload's and the address model's random streams, and the float
        operations on the cycle accumulator, happen in exactly the same order
        as in :meth:`run_quantum_reference`, so the two implementations return
        bit-identical results and leave the machine in the same state
        (guarded by the exact-parity test suites).
        """
        if cycle_budget <= 0:
            raise SimulationError(f"cycle budget must be positive, got {cycle_budget}")
        dmr = assignment.mode is ExecutionMode.DMR
        performance_mode = assignment.mode is ExecutionMode.PERFORMANCE
        mode = assignment.mode
        core_id = assignment.primary_core
        mute_id = assignment.secondary_core
        pair = assignment.reunion_pair
        tlb = self.tlbs[core_id]
        pab = self.pabs[core_id] if performance_mode else None
        fault_hook = self.fault_hook

        core_config = self.config.core
        issue_cost = 1.0 / core_config.issue_width
        costs = quantum_costs(self.config, dmr)
        dmr_check_cost = costs.check_cycles
        store_exposure = costs.store_exposure
        load_pressure = costs.load_pressure
        tlb_miss_exposure = costs.tlb_miss_exposure
        if active_cores is None:
            active_cores = len(assignment.cores)
        contention = 1.0
        if self.config.num_cores > 1:
            contention += SHARED_RESOURCE_CONTENTION * (
                max(0, min(active_cores, self.config.num_cores) - 1)
                / (self.config.num_cores - 1)
            )

        # Per-quantum constants the reference loop reads or computes per
        # instruction.  Each is a pure function of the configuration (and the
        # DMR flag), so hoisting preserves the exact float values the loop
        # accumulates.
        icache_miss_latency = self.config.l2.hit_latency
        profile = workload.profile
        icache_user = (profile.user_icache_mpki / 1000.0) * icache_miss_latency
        icache_os = (profile.os_icache_mpki / 1000.0) * icache_miss_latency
        branch_threshold = int(core_config.branch_mispredict_rate * 256)
        branch_penalty = float(core_config.branch_penalty_cycles)
        si_total = costs.serializing_cycles
        load_exposures = costs.load_exposures

        # Hot bindings.  The hierarchy's internal access paths are bound
        # directly (the core-id validation that access_raw would repeat per
        # access is done once here; physical addresses produced by the TLB
        # are never negative).
        hierarchy = self.hierarchy
        hierarchy._check_core(core_id)
        if mute_id is not None:
            hierarchy._check_core(mute_id)
        translate_raw = tlb.translate_raw
        l1_miss_load = hierarchy._l1_miss_load
        coherent_store = hierarchy._coherent_store
        mute_access = hierarchy._mute_access
        # Workload and address-model internals for the inlined instruction
        # synthesis.  The phase position is mirrored in a local and written
        # back in the finally block below (and around each boundary trap).
        wl = workload
        next_trap = wl.next_instruction
        wl_r01 = wl._random01
        wl_grb = wl._getrandbits
        wl_remaining = wl._remaining_in_phase
        addresses = wl.address_model
        a_r01 = addresses._r01
        a_grb = addresses._getrandbits
        line_mask = addresses._line_mask
        hot_fraction = addresses._hot_fraction
        hot_drawn = 0.0 < hot_fraction < 1.0
        hot_always = hot_fraction >= 1.0
        # What a phase binds once: (in OS, mix thresholds, I-cache cost,
        # shared-access probability, shared/hot/cold draws).
        user_phase = (False, *wl._user_thresholds, icache_user, *addresses._user_draws)
        os_phase = (True, *wl._os_thresholds, icache_os, *addresses._kernel_draws)
        # TLB internals for the inlined translation hit path (misses and
        # non-power-of-two page sizes delegate to translate_raw).
        tlb_entries = tlb._entries
        tlb_page_shift = tlb._page_shift
        tlb_page_mask = tlb._page_mask
        # L1 internals for the inlined load hit path (a miss continues on the
        # hierarchy's one L1-miss load path).
        l1 = hierarchy.l1d[core_id]
        l1_lines = l1._lines
        h_counts = hierarchy._counts
        l1_hit_latency = hierarchy._l1d_hit_latency
        line_neg_mask = hierarchy._line_neg_mask
        pab_check = pab.check_store if pab is not None else None
        dmr_mute = dmr and mute_id is not None

        ALU_CLASS = InstructionClass.ALU
        LOAD_CLASS = InstructionClass.LOAD
        STORE_CLASS = InstructionClass.STORE
        BRANCH_CLASS = InstructionClass.BRANCH
        ENTRY_CLASS = InstructionClass.SYSCALL_ENTRY
        EXIT_CLASS = InstructionClass.SYSCALL_EXIT
        SERIALIZING_CLASS = InstructionClass.SERIALIZING
        PRIVILEGED_CLASS = InstructionClass.PRIVILEGED
        OFFCORE_LEVELS = ("l3", "c2c", "memory")
        MASK64 = 0xFFFF_FFFF_FFFF_FFFF

        # The Reunion pair's fingerprint tokens run only under a fault hook.
        # Without one both units would receive the same token, so every
        # comparison would match and charge 0 cycles; the Check stage itself
        # is charged through dmr_check_cost either way, and
        # run_quantum_reference still compares every interval.  feed_pair
        # unrolls both units' appends and the pair's compare; flush() clears
        # the pending lists in place, so the list bindings stay valid across
        # interval emissions and synchronize() calls.
        dmr_pair = pair if dmr and fault_hook is not None else None
        if dmr_pair is not None:
            pair_sync = dmr_pair.synchronize
            vocal_unit = dmr_pair.vocal_unit
            mute_unit = dmr_pair.mute_unit
            vocal_pending = vocal_unit._pending
            mute_pending = mute_unit._pending
            fp_interval = vocal_unit.interval
            pair_compare = dmr_pair._compare

            def feed_pair(iclass, result, address, cycles):
                """``cycles`` after one committed instruction's pair tokens."""
                icv = iclass._value_
                saddr = address if (iclass is STORE_CLASS and address) else 0
                token = (icv * 0x9E3779B1 ^ result * 0x85EBCA77 ^ saddr) & MASK64
                vocal_pending.append(token)
                if fault_hook.corrupt_execution(core_id, mode):
                    # The fault flips bit 0 of the mute core's result.
                    token = (
                        icv * 0x9E3779B1 ^ (result ^ 0x1) * 0x85EBCA77 ^ saddr
                    ) & MASK64
                mute_pending.append(token)
                if len(vocal_pending) >= fp_interval:
                    cycles = self._charge_check(
                        pair_compare(vocal_unit.flush(), mute_unit.flush()),
                        cycles,
                        start_cycle,
                        core_id,
                        vcpu_id,
                        address,
                    )
                return cycles

        cycles = 0.0
        user_instructions = 0
        os_instructions = 0
        stop_reason = StopReason.BUDGET_EXHAUSTED

        try:
          while cycles < cycle_budget:
            if wl_remaining <= 0:
                # Phase boundary: the generator samples the next phase's
                # length and emits the SYSCALL trap, which runs at the OS
                # privilege and serialises.
                wl._remaining_in_phase = wl_remaining
                trap = next_trap()
                wl_remaining = wl._remaining_in_phase
                os_instructions += 1
                cycles += issue_cost
                cycles += icache_os
                if dmr:
                    cycles += dmr_check_cost
                cycles += si_total
                if dmr_pair is not None:
                    # The pair must agree on architected state before the SI.
                    cycles = self._charge_check(
                        pair_sync(), cycles, start_cycle, core_id, vcpu_id, None
                    )
                    cycles = feed_pair(trap.iclass, trap.result, None, cycles)
                if stop_on_os_entry and trap.iclass is ENTRY_CLASS:
                    stop_reason = StopReason.OS_ENTRY
                    break
                if stop_on_os_exit and trap.iclass is EXIT_CLASS:
                    stop_reason = StopReason.OS_EXIT
                    break
                continue

            # The rest of one phase.  Its instructions are never traps, so
            # no stop condition can fire before the next boundary.
            (
                in_os, t_si, t_load, t_store, t_branch, icache,
                p_shared, shared_draw, hot_draw, cold_draw,
            ) = os_phase if wl._in_os_phase else user_phase
            shared_drawn = 0.0 < p_shared < 1.0
            shared_always = p_shared >= 1.0
            phase_start = wl_remaining
            while wl_remaining and cycles < cycle_budget:
                wl_remaining -= 1
                cycles += issue_cost
                cycles += icache
                if dmr:
                    cycles += dmr_check_cost
                roll = wl_r01()
                if roll < t_si:
                    # A serialising instruction; in OS code half of them
                    # are privileged-register writes.
                    iclass = (
                        (PRIVILEGED_CLASS if wl_r01() < 0.5 else SERIALIZING_CLASS)
                        if in_os
                        else SERIALIZING_CLASS
                    )
                    result = wl_grb(17)
                    while result >= 65536:
                        result = wl_grb(17)
                    cycles += si_total
                    if dmr_pair is not None:
                        # The pair must agree on architected state before the SI.
                        cycles = self._charge_check(
                            pair_sync(), cycles, start_cycle, core_id, vcpu_id, None
                        )
                        cycles = feed_pair(iclass, result, None, cycles)
                    continue
                # Exact inline of randint(0, 0xFFFF) -- see
                # SyntheticWorkload.next_instruction.  A memory instruction's
                # result is drawn before its address here and after it there;
                # the address comes from the address model's own random
                # stream, so neither stream's order changes.
                result = wl_grb(17)
                while result >= 65536:
                    result = wl_grb(17)
                if roll >= t_store:
                    if roll < t_branch:
                        iclass = BRANCH_CLASS
                        # Deterministic pseudo-random misprediction decision
                        # derived from the instruction's synthetic result,
                        # reproducible runs.
                        if (result & 0xFF) < branch_threshold and branch_penalty:
                            cycles += branch_penalty
                    else:
                        iclass = ALU_CLASS
                    if dmr_pair is not None:
                        cycles = feed_pair(iclass, result, None, cycles)
                    continue

                # A load or a store.  Inline of next_address's draw: the
                # shared-access chance, then the hot-set chance (drawn before
                # the cold window is looked at), then the span's getrandbits
                # rejection loop.
                is_store_op = roll >= t_load
                if (a_r01() < p_shared) if shared_drawn else shared_always:
                    base, span, bits = shared_draw
                elif (
                    (a_r01() < hot_fraction) if hot_drawn else hot_always
                ) or cold_draw is None:
                    base, span, bits = hot_draw
                else:
                    base, span, bits = cold_draw
                offset = a_grb(bits)
                while offset >= span:
                    offset = a_grb(bits)
                address = base + (offset & line_mask)

                t_entry = (
                    tlb_entries.get(address >> tlb_page_shift)
                    if tlb_page_shift is not None
                    else None
                )
                if t_entry is not None:
                    # Inline of translate_raw's hit path.
                    tlb._touch = tlb_touch = tlb._touch + 1
                    t_entry.last_touch = tlb_touch
                    t_latency = 0
                    permitted = True
                    if not in_os:
                        flag_bits = t_entry.flags._value_
                        if is_store_op and not (flag_bits & _USER_WRITE):
                            permitted = False
                        if flag_bits & _PRIVILEGED_ONLY:
                            permitted = False
                    physical = (t_entry.physical_page << tlb_page_shift) + (
                        address & tlb_page_mask
                    )
                else:
                    physical, _flags, _domain, _hit, t_latency, permitted = translate_raw(
                        address, is_store_op, in_os
                    )
                if t_latency:
                    cycles += t_latency * tlb_miss_exposure
                if not permitted:
                    # The TLB's own check caught the access (fault-free path).
                    self._record_violation(
                        ViolationKind.TLB_DENIED,
                        start_cycle + int(cycles),
                        core_id,
                        vcpu_id,
                        physical,
                        "TLB permission check denied a store",
                    )
                    continue

                if is_store_op and fault_hook is not None:
                    physical = fault_hook.perturb_store_address(
                        core_id, mode, physical
                    )

                if pab_check is not None and is_store_op:
                    check = pab_check(physical)
                    check_latency = check.latency
                    if check_latency:
                        # A serialised lookup delays the write-through
                        # itself, so its latency is exposed in full;
                        # PAT-fill latency behaves like any other
                        # store-completion latency.
                        cycles += check_latency * (
                            1.0 if check.serialized else store_exposure
                        )
                    if not check.allowed:
                        self._record_violation(
                            ViolationKind.PAB_BLOCKED,
                            start_cycle + int(cycles),
                            core_id,
                            vcpu_id,
                            physical,
                            "PAB blocked a store to a reliable-only page",
                        )
                        continue

                if is_store_op:
                    latency, level = coherent_store(core_id, physical)
                else:
                    # Inline of _coherent_load's L1-hit path.
                    line_addr = physical & line_neg_mask
                    line = l1_lines.get(line_addr)
                    if line is not None:
                        l1._touch_counter = l1_touch = l1._touch_counter + 1
                        line.last_touch = l1_touch
                        h_counts["l1d.hits"] += 1
                        latency = l1_hit_latency
                        level = "l1"
                    else:
                        latency, level = l1_miss_load(core_id, line_addr)
                if dmr_mute:
                    m_latency, m_level = mute_access(mute_id, physical, is_store_op)
                    if m_latency > latency:
                        latency = m_latency
                        level = m_level

                if level in OFFCORE_LEVELS:
                    # Shared-resource queueing: more active cores stretch
                    # the effective latency of off-core accesses.
                    latency = latency * contention
                if is_store_op:
                    cycles += latency * store_exposure
                else:
                    cycles += latency * load_exposures[level] * load_pressure
                if dmr_pair is not None:
                    cycles = feed_pair(
                        STORE_CLASS if is_store_op else LOAD_CLASS,
                        result,
                        address,
                        cycles,
                    )
            if in_os:
                os_instructions += phase_start - wl_remaining
            else:
                user_instructions += phase_start - wl_remaining
        finally:
            # Write the mirrored phase position back so the workload resumes
            # exactly where the quantum stopped.
            wl._remaining_in_phase = wl_remaining
        if dmr_pair is not None:
            # The pair compares its partial interval before it is released.
            cycles = self._charge_check(
                pair_sync(), cycles, start_cycle, core_id, vcpu_id, None
            )

        return QuantumResult(
            cycles=max(1, int(round(cycles))),
            instructions=user_instructions + os_instructions,
            user_instructions=user_instructions,
            os_instructions=os_instructions,
            stop_reason=stop_reason,
        )

    def run_quantum_reference(
        self,
        workload: SyntheticWorkload,
        assignment: CoreAssignment,
        cycle_budget: int,
        start_cycle: int = 0,
        vcpu_id: Optional[int] = None,
        stop_on_os_entry: bool = False,
        stop_on_os_exit: bool = False,
        active_cores: Optional[int] = None,
    ) -> QuantumResult:
        """Reference implementation of :meth:`run_quantum`.

        One straightforward pass over :class:`Instruction` objects, one
        method call per cost component, reading the same
        :func:`quantum_costs` as :meth:`run_quantum`.  Kept as the executable
        specification of the per-instruction cost model: the batched
        :meth:`run_quantum` must return bit-identical results and leave the
        machine in the same state (``tests/test_hotpath_parity.py``).
        """
        if cycle_budget <= 0:
            raise SimulationError(f"cycle budget must be positive, got {cycle_budget}")
        dmr = assignment.mode is ExecutionMode.DMR
        performance_mode = assignment.mode is ExecutionMode.PERFORMANCE
        core_id = assignment.primary_core
        mute_id = assignment.secondary_core
        pair = assignment.reunion_pair
        tlb = self.tlbs[core_id]
        pab = self.pabs[core_id] if performance_mode else None

        issue_cost = 1.0 / self.config.core.issue_width
        costs = quantum_costs(self.config, dmr)
        store_exposure = costs.store_exposure
        load_pressure = costs.load_pressure
        if active_cores is None:
            active_cores = len(assignment.cores)
        contention = 1.0
        if self.config.num_cores > 1:
            contention += SHARED_RESOURCE_CONTENTION * (
                max(0, min(active_cores, self.config.num_cores) - 1)
                / (self.config.num_cores - 1)
            )

        cycles = 0.0
        instructions = 0
        user_instructions = 0
        os_instructions = 0
        stop_reason = StopReason.BUDGET_EXHAUSTED

        while cycles < cycle_budget:
            instruction = workload.next_instruction()
            instructions += 1
            if instruction.is_user:
                user_instructions += 1
            else:
                os_instructions += 1

            cycles += issue_cost
            cycles += self._icache_cost(workload, instruction.privilege)

            if dmr:
                cycles += costs.check_cycles

            if instruction.is_branch:
                penalty = self._branch_cost(instruction)
                if penalty:
                    cycles += penalty

            elif instruction.is_serializing and not instruction.is_memory:
                cycles += costs.serializing_cycles
                if dmr and pair is not None:
                    # The pair must agree on architected state before the SI.
                    cycles = self._charge_check(
                        pair.synchronize(),
                        cycles,
                        start_cycle,
                        core_id,
                        vcpu_id,
                        instruction.address,
                    )

            elif instruction.is_memory and instruction.address is not None:
                translation = tlb.translate(
                    instruction.address,
                    is_store=instruction.is_store,
                    privileged=instruction.is_privileged_code,
                )
                if translation.latency:
                    cycles += translation.latency * costs.tlb_miss_exposure
                if not translation.permitted:
                    # The TLB's own check caught the access (fault-free path).
                    self._record_violation(
                        ViolationKind.TLB_DENIED,
                        start_cycle + int(cycles),
                        core_id,
                        vcpu_id,
                        translation.physical_address,
                        "TLB permission check denied a store",
                    )
                    continue

                physical = translation.physical_address
                if instruction.is_store and self.fault_hook is not None:
                    physical = self.fault_hook.perturb_store_address(
                        core_id, assignment.mode, physical
                    )

                if pab is not None and instruction.is_store:
                    check = pab.check_store(physical)
                    if check.latency:
                        # A serialised lookup delays the write-through itself,
                        # so its latency is exposed in full; PAT-fill latency
                        # behaves like any other store-completion latency.
                        exposure = 1.0 if check.serialized else store_exposure
                        cycles += check.latency * exposure
                    if not check.allowed:
                        self._record_violation(
                            ViolationKind.PAB_BLOCKED,
                            start_cycle + int(cycles),
                            core_id,
                            vcpu_id,
                            physical,
                            "PAB blocked a store to a reliable-only page",
                        )
                        continue

                vocal_access = self.hierarchy.access(
                    core_id, physical, is_store=instruction.is_store, coherent=True
                )
                latency = vocal_access.latency
                level = vocal_access.level
                if dmr and mute_id is not None:
                    mute_access = self.hierarchy.access(
                        mute_id, physical, is_store=instruction.is_store, coherent=False
                    )
                    if mute_access.latency > latency:
                        latency = mute_access.latency
                        level = mute_access.level

                if level in ("l3", "c2c", "memory"):
                    # Shared-resource queueing: more active cores stretch the
                    # effective latency of off-core accesses.
                    latency = latency * contention
                if instruction.is_store:
                    exposed = latency * store_exposure
                else:
                    exposure = costs.load_exposures[level]
                    exposed = latency * exposure * load_pressure
                cycles += exposed

            if dmr and pair is not None:
                hook = self.fault_hook
                corrupted = hook is not None and hook.corrupt_execution(
                    core_id, assignment.mode
                )
                cycles = self._charge_check(
                    pair.observe_commit(instruction, mute_corrupted=corrupted),
                    cycles,
                    start_cycle,
                    core_id,
                    vcpu_id,
                    instruction.address,
                )

            if stop_on_os_entry and instruction.enters_os:
                stop_reason = StopReason.OS_ENTRY
                break
            if stop_on_os_exit and instruction.exits_os:
                stop_reason = StopReason.OS_EXIT
                break
        if dmr and pair is not None:
            # The pair compares its partial interval before it is released.
            cycles = self._charge_check(
                pair.synchronize(), cycles, start_cycle, core_id, vcpu_id, None
            )

        return QuantumResult(
            cycles=max(1, int(round(cycles))),
            instructions=instructions,
            user_instructions=user_instructions,
            os_instructions=os_instructions,
            stop_reason=stop_reason,
        )
