"""The event-driven, quantum-based simulation loop.

The simulator advances the machine in scheduling quanta along an ordered
:class:`~repro.sim.timeline.Timeline` of mid-run events.  Each quantum runs
through five composable phases:

1. **schedule** -- ask the gang scheduler which *active* guest VM owns the
   machine for this quantum,
2. **place** -- ask the mapping policy to place that VM's VCPUs onto the
   healthy cores (DMR pairs, single performance cores, or paused); every
   quantum plans afresh, with fresh Reunion pairs,
3. **transition-charge** -- charge mode-transition costs at timeslice
   boundaries where the machine switches between a reliable VM and a
   performance VM (scaled by ``transition_cost_scale`` so scaled-down
   timeslices keep the paper's amortisation ratio),
4. **execute** -- run every placed VCPU through the core timing model for
   the quantum's cycle budget (VCPUs whose reliability register is
   ``PERFORMANCE_USER_ONLY`` are run with fine-grained switching: they
   escalate to DMR at every OS entry and drop back at every OS exit, paying
   the transition engine's costs each time), and
5. **account** -- accumulate results into the VCPUs and the machine-wide
   statistics.

Timeline events (core failures and repairs, VM arrivals and departures,
policy and reliability-mode changes, fault-rate bursts) apply exactly at
their cycle: the quantum boundary computation clamps at the next pending
event, so two events inside one nominal quantum split it, an event at cycle
0 reshapes the machine before the first quantum, and an event at the
measurement boundary applies just as measurement begins.

A warmup period can be simulated before measurement begins; caches, TLBs and
PABs stay warm across the measurement boundary but all counters are reset.
The final warmup quantum is clamped so measurement starts *exactly* at
``warmup_cycles`` (previously a warmup not aligned to the quantum length
silently shifted the boundary and dropped measured cycles);
``SimulationResult.warmup_clamp_cycles`` surfaces how many cycles the clamp
trimmed.
"""

from __future__ import annotations

import hashlib
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.common.stats import StatSet
from repro.core.transitions import TransitionFlavor
from repro.cpu.timing import CoreAssignment, ExecutionMode, StopReason
from repro.errors import SimulationError
from repro.faults.injector import FaultRates
from repro.sim.results import SimulationResult, build_vm_results
from repro.sim.timeline import (
    CoreFailed,
    CoreRepaired,
    FaultRateBurst,
    PolicyChanged,
    ReliabilityModeChanged,
    Timeline,
    TimelineEvent,
    VmArrived,
    VmDeparted,
)
from repro.virt.scheduler import GangScheduler, MappingPlan, VcpuPlacement
from repro.virt.vcpu import ReliabilityMode, VirtualCPU

#: How many functional-warm checkpoints to keep (least recently used out).
#: The ``run-all --quick`` batch makes 33 ``Simulator.run`` calls (cells
#: that build the same machine share one run); 1, 2, 4 and unbounded
#: entries give 2, 11, 12 and 14 hits.  With 2 entries the hits are pab's
#: pmake ``serial`` point (an mmm-tp warm), ablation's ``window256-tso``
#: and degradation's ``fail2`` points (a reunion warm: window, consistency
#: and core failures do not change it), and fleet alternating two machine
#: shapes.
_WARM_CHECKPOINT_SLOTS = 2
#: Checkpoint key -> the packed hierarchy state after functional warm.
_warm_checkpoints: "OrderedDict[bytes, tuple]" = OrderedDict()
_warm_checkpoints_lock = threading.Lock()


@dataclass(frozen=True)
class SimulationOptions:
    """Knobs of one simulation run."""

    #: Measured cycles (after warmup).
    total_cycles: int = 40_000
    #: Cycles simulated before measurement starts (caches warm up).  Need
    #: not be a multiple of the quantum length: the final warmup quantum is
    #: clamped at the boundary so measurement starts exactly here, and the
    #: trimmed cycles are surfaced as ``SimulationResult.warmup_clamp_cycles``.
    warmup_cycles: int = 10_000
    #: Quantum length; defaults to the gang-scheduling timeslice.
    quantum_cycles: Optional[int] = None
    #: Factor applied to mode-transition costs charged at timeslice
    #: boundaries.  The paper uses 1 ms timeslices with transitions of a few
    #: thousand cycles; scaled-down runs pass ``scaled_timeslice / 3e6`` here
    #: so the amortisation ratio is preserved.
    transition_cost_scale: float = 1.0
    #: Whether VCPUs in PERFORMANCE_USER_ONLY mode switch modes at every OS
    #: entry/exit (single-OS behaviour).  Requires a policy that reserves a
    #: partner core (MMM-IPC).
    fine_grained_switching: bool = True
    #: Touch every VCPU's working set through the hierarchy before simulation
    #: starts, reproducing the steady-state cache contents a long-running
    #: workload would have (the paper's methodology starts from warmed
    #: checkpoints).  Costs no simulated cycles.
    functional_warming: bool = True
    #: Floor on the usable cycles of a quantum after transition costs.
    minimum_quantum_cycles: int = 64

    def validate(self) -> "SimulationOptions":
        """Check the options are usable; return ``self``."""
        if self.total_cycles <= 0:
            raise SimulationError("total_cycles must be positive")
        if self.warmup_cycles < 0:
            raise SimulationError("warmup_cycles cannot be negative")
        if self.quantum_cycles is not None and self.quantum_cycles <= 0:
            raise SimulationError("quantum_cycles must be positive when given")
        if not 0.0 <= self.transition_cost_scale <= 10.0:
            raise SimulationError("transition_cost_scale outside [0, 10]")
        if self.minimum_quantum_cycles <= 0:
            # A non-positive floor would let fine-grained switching spin
            # forever on a budget it can never exhaust.
            raise SimulationError("minimum_quantum_cycles must be positive")
        return self


class Simulator:
    """Drives one machine through warmup and measurement along a timeline."""

    def __init__(
        self,
        machine,
        options: SimulationOptions,
        timeline: Optional[Timeline] = None,
    ) -> None:
        self.machine = machine
        self.options = options.validate()
        self.timeline = (timeline if timeline is not None else Timeline()).validate()
        self.quantum_stats = StatSet()
        timeslice = machine.config.virtualization.timeslice_cycles
        self._quantum = min(
            timeslice,
            options.quantum_cycles if options.quantum_cycles is not None else timeslice,
        )
        if self._quantum <= options.minimum_quantum_cycles:
            # At or below the floor, fine-grained switching never runs a
            # PERFORMANCE_USER_ONLY VCPU and a boundary transition costs no
            # cycles, so a quantum this short cannot be simulated.
            raise SimulationError(
                f"a {self._quantum}-cycle quantum is not longer than the "
                f"{options.minimum_quantum_cycles}-cycle quantum floor"
            )
        self.gang = GangScheduler(
            vm_ids=[vm.vm_id for vm in machine.active_vms],
            timeslice_cycles=timeslice,
        )
        # Timeline state: events in processing order, consumed from the front.
        self._events: List[TimelineEvent] = self.timeline.sorted_events()
        self._next_event = 0
        self._events_applied = 0
        self._timeline_stats: Dict[str, int] = {}
        #: (restore cycle, base rates) of the active fault-rate burst.
        self._burst_restore: Optional[Tuple[int, FaultRates]] = None
        self._previous_vm_id: Optional[int] = None
        #: Whether the previous quantum's VM was reliable *when it ran*.
        #: Captured at account time: a ReliabilityModeChanged event may flip
        #: the VM's registers before the next boundary charge reads them,
        #: and the Leave/Enter-DMR cost must follow the mode that actually
        #: executed, not the mode the VM has now.
        self._previous_vm_reliable: Optional[bool] = None
        self._previous_plan: Optional[MappingPlan] = None
        self._warmup_clamp_cycles = 0
        self._measuring = False
        self._transitions = 0
        self._transition_cycles = 0
        self._paused_quanta = 0

    # ------------------------------------------------------------------ #
    # Top-level driver
    # ------------------------------------------------------------------ #

    def run(self) -> SimulationResult:
        """Run warmup plus measurement and return the collected results."""
        machine = self.machine
        if self.options.functional_warming:
            self._functional_warm()
        end = self.options.warmup_cycles + self.options.total_cycles
        cycle = 0
        self._measuring = self.options.warmup_cycles == 0
        while cycle < end:
            if not self._measuring and cycle >= self.options.warmup_cycles:
                self._reset_measurement_state()
                self._measuring = True
            self._apply_due_events(cycle)
            quantum_end = self._quantum_end(cycle, end)
            self._run_quantum(cycle, quantum_end - cycle)
            cycle = quantum_end

        measured = self.options.total_cycles
        result = SimulationResult(
            policy_name=machine.policy.name,
            total_cycles=measured,
            warmup_cycles=self.options.warmup_cycles,
            vm_results=build_vm_results(machine, measured),
            transitions=self._transitions,
            transition_cycles=self._transition_cycles,
            enter_dmr_transitions=int(
                machine.transition_engine.stats.get("enter_dmr_transitions")
            ),
            leave_dmr_transitions=int(
                machine.transition_engine.stats.get("leave_dmr_transitions")
            ),
            average_enter_dmr_cycles=machine.transition_engine.average_enter_cycles(),
            average_leave_dmr_cycles=machine.transition_engine.average_leave_cycles(),
            paused_vcpu_quanta=self._paused_quanta,
            violation_counts=self._violation_counts(),
            hierarchy_stats=machine.hierarchy.merged_stats().as_dict(),
            quantum_stats=self.quantum_stats.as_dict(),
            warmup_clamp_cycles=self._warmup_clamp_cycles,
            timeline_events_applied=self._events_applied,
            timeline_events_pending=len(self._events) - self._next_event,
            timeline_stats=dict(sorted(self._timeline_stats.items())),
        )
        return result

    def _quantum_end(self, cycle: int, end: int) -> int:
        """First cycle after ``cycle`` at which the quantum must stop.

        The quantum is bounded by the end of the run, the gang-scheduling
        boundary, the configured quantum length, the next pending timeline
        event (so events apply exactly at their cycle), the end of an active
        fault-rate burst, and -- while still warming up -- the measurement
        boundary (the warmup clamp).
        """
        bound = min(end, self.gang.next_boundary(cycle), cycle + self._quantum)
        if self._next_event < len(self._events):
            pending = self._events[self._next_event].cycle
            if cycle < pending < bound:
                bound = pending
        if self._burst_restore is not None and cycle < self._burst_restore[0] < bound:
            bound = self._burst_restore[0]
        warmup = self.options.warmup_cycles
        if not self._measuring and cycle < warmup < bound:
            # Clamp the final warmup quantum at the measurement boundary
            # instead of silently extending warmup into the measured window.
            self._warmup_clamp_cycles += bound - warmup
            bound = warmup
        return bound

    # ------------------------------------------------------------------ #
    # Timeline event application
    # ------------------------------------------------------------------ #

    def _apply_due_events(self, cycle: int) -> None:
        """Apply every event scheduled at or before ``cycle``, in order."""
        if self._burst_restore is not None and self._burst_restore[0] <= cycle:
            _, base_rates = self._burst_restore
            if self.machine.fault_injector is not None:
                self.machine.fault_injector.rates = base_rates
            self._burst_restore = None
        while (
            self._next_event < len(self._events)
            and self._events[self._next_event].cycle <= cycle
        ):
            event = self._events[self._next_event]
            self._next_event += 1
            self._apply_event(event, cycle)
            self._events_applied += 1
            self._timeline_stats[event.KIND] = (
                self._timeline_stats.get(event.KIND, 0) + 1
            )

    def _apply_event(self, event: TimelineEvent, cycle: int) -> None:
        machine = self.machine
        if isinstance(event, CoreFailed):
            machine.retire_core(event.core_id)
            # The failed core may sit in the previous plan; there is no
            # orderly Leave-DMR from a dead core, so the plan is dropped
            # (the next quantum re-plans and re-pairs around the failure).
            self._previous_plan = None
        elif isinstance(event, CoreRepaired):
            machine.restore_core(event.core_id)
        elif isinstance(event, VmArrived):
            machine.admit_vm(event.vm_name)
            self.gang.set_vm_ids([vm.vm_id for vm in machine.active_vms])
        elif isinstance(event, VmDeparted):
            machine.drain_vm(event.vm_name)
            self.gang.set_vm_ids([vm.vm_id for vm in machine.active_vms])
        elif isinstance(event, PolicyChanged):
            # Unlike a core failure, the previous plan's pairs are still
            # physically intact, so _previous_plan is kept: the Leave-DMR
            # boundary charge for the slice that already ran must still be
            # paid.  The next quantum plans under the new policy.
            machine.set_policy(event.policy)
        elif isinstance(event, ReliabilityModeChanged):
            try:
                mode = ReliabilityMode[event.mode]
            except KeyError:
                known = ", ".join(mode.name for mode in ReliabilityMode)
                raise SimulationError(
                    f"unknown reliability mode {event.mode!r} (known: {known})"
                ) from None
            machine.set_vm_reliability(event.vm_name, mode)
        elif isinstance(event, FaultRateBurst):
            injector = machine.fault_injector
            if injector is not None:
                # A burst arriving while another is active replaces it: the
                # rates are always ``base * scale`` of the latest burst.
                base = (
                    self._burst_restore[1]
                    if self._burst_restore is not None
                    else injector.rates
                )
                injector.rates = replace(
                    base,
                    execution_result=base.execution_result * event.scale,
                    store_address=base.store_address * event.scale,
                    privileged_register=base.privileged_register * event.scale,
                )
                self._burst_restore = (cycle + event.duration_cycles, base)
        else:
            raise SimulationError(
                f"the simulator cannot apply timeline event kind {event.KIND!r}"
            )

    # ------------------------------------------------------------------ #
    # Functional cache warming
    # ------------------------------------------------------------------ #

    def _functional_warm(self) -> None:
        """Touch every VCPU's working set on the cores it will run on.

        This reproduces steady-state cache/TLB contents without charging any
        simulated cycles, so short measurement windows are not dominated by
        compulsory (first-touch) misses that a real long-running workload
        would have amortised long ago.  Deferred VMs are warmed too: by the
        time a ``VmArrived`` event admits one, a real long-running guest
        would have its steady-state footprint resident as well.

        Warming a pristine hierarchy is a checkpoint: the warmed state is a
        pure function of the hierarchy's config and the ordered warm calls,
        so a run whose key matches a kept checkpoint restores that state
        instead of replaying the calls.  The policy still plans every VM
        (it may be stateful); planning never reads the hierarchy.
        """
        machine = self.machine
        plans = []
        for vm in machine.vms:
            machine.allocator.reset()
            plans.append(
                machine.policy.plan_quantum(vm.vcpus, machine.allocator, machine.pair_factory)
            )
        machine.allocator.reset()
        hierarchy = machine.hierarchy
        key = self._warm_checkpoint_key(plans) if hierarchy.is_pristine() else None
        if key is not None:
            with _warm_checkpoints_lock:
                snapshot = _warm_checkpoints.get(key)
                if snapshot is not None:
                    _warm_checkpoints.move_to_end(key)
            if snapshot is not None:
                hierarchy.restore(snapshot)
                return
        for plan in plans:
            self._warm_vm_plan(plan)
        if key is not None:
            snapshot = hierarchy.snapshot()
            with _warm_checkpoints_lock:
                _warm_checkpoints[key] = snapshot
                _warm_checkpoints.move_to_end(key)
                while len(_warm_checkpoints) > _WARM_CHECKPOINT_SLOTS:
                    _warm_checkpoints.popitem(last=False)

    def _warm_checkpoint_key(self, plans: List[MappingPlan]) -> bytes:
        """Digest of everything functional warm of a pristine hierarchy reads.

        That is the hierarchy's part of the config and, in order, each warm
        call's cores and addresses.  The seed is not hashed: whatever it
        shapes reaches the key through the addresses, and the workloads'
        working sets do not depend on it, so the seeds of one machine shape
        share a key.
        """
        machine = self.machine
        config = machine.config
        digest = hashlib.sha256(
            repr(
                (
                    config.num_cores,
                    config.l1d,
                    config.l1i,
                    config.l2,
                    config.l3,
                    config.memory,
                    config.interconnect,
                )
            ).encode()
        )
        for plan in plans:
            for placement in plan.placements:
                assignment = placement.assignment
                addresses = machine.vcpus[
                    placement.vcpu_id
                ].workload.address_model.warm_addresses()
                digest.update(
                    repr(
                        (assignment.primary_core, assignment.secondary_core, len(addresses))
                    ).encode()
                )
                digest.update(array("q", addresses).tobytes())
        return digest.digest()

    def _warm_vm_plan(self, plan: MappingPlan) -> None:
        machine = self.machine
        for placement in plan.placements:
            vcpu = machine.vcpus[placement.vcpu_id]
            machine.hierarchy.warm(
                placement.assignment.primary_core,
                vcpu.workload.address_model.warm_addresses(),
                secondary_core=placement.assignment.secondary_core,
            )

    # ------------------------------------------------------------------ #
    # Quantum execution (the five composable phases)
    # ------------------------------------------------------------------ #

    def _run_quantum(self, cycle: int, budget: int) -> None:
        machine = self.machine
        machine.hierarchy.begin_window(budget)
        vm = self._phase_schedule(cycle)
        plan = self._phase_place(vm)
        effective_budget = self._phase_transition_charge(vm, plan, cycle, budget)
        self._phase_execute(vm, plan, effective_budget, cycle)
        self._phase_account(vm, plan, budget)

    def _phase_schedule(self, cycle: int):
        """Which active guest VM owns the machine for this quantum."""
        return self.machine.vms[self.gang.vm_at(cycle)]

    def _phase_place(self, vm) -> MappingPlan:
        """Map the VM's VCPUs onto healthy cores."""
        machine = self.machine
        machine.allocator.reset()
        return machine.policy.plan_quantum(
            vm.vcpus, machine.allocator, machine.pair_factory
        ).validate(machine.num_cores, machine.retired_cores)

    def _phase_transition_charge(
        self, vm, plan: MappingPlan, cycle: int, budget: int
    ) -> int:
        """Charge boundary transitions and rewarm on VM switches."""
        machine = self.machine
        vm_switched = (
            self._previous_vm_id is not None and self._previous_vm_id != vm.vm_id
        )
        transition_cost = 0
        if machine.policy.mixed_mode and vm_switched:
            transition_cost = self._charge_boundary_transition(vm, plan, cycle)
        if vm_switched and self.options.functional_warming:
            # Amortised-timeslice approximation: the incoming VM's steady-state
            # cache contents are re-established.  The paper's 1 ms timeslices
            # are long enough that the cache refill after a VM switch is
            # amortised to a small fraction of the slice; scaled-down
            # timeslices are not, so without this rewarm the refill would
            # (wrongly) dominate every slice.
            self._warm_vm_plan(plan)
        # The floor keeps boundary transitions from starving a whole quantum,
        # but must never *grant* cycles: an event-clamped micro-quantum (the
        # wall budget itself below the floor) executes only its real budget,
        # otherwise placed VCPUs would commit more work than the clock
        # advances and event-heavy runs would inflate throughput.
        return min(
            budget, max(self.options.minimum_quantum_cycles, budget - transition_cost)
        )

    def _phase_execute(
        self, vm, plan: MappingPlan, effective_budget: int, cycle: int
    ) -> None:
        """Run every placed VCPU through the core timing model."""
        machine = self.machine
        active_cores = plan.cores_in_use
        for placement in plan.placements:
            vcpu = machine.vcpus[placement.vcpu_id]
            if (
                self.options.fine_grained_switching
                and machine.policy.mixed_mode
                and vcpu.mode_register is ReliabilityMode.PERFORMANCE_USER_ONLY
            ):
                self._run_fine_grained(
                    vcpu, placement, effective_budget, cycle, active_cores
                )
            else:
                self._run_placement(
                    vcpu, placement.assignment, effective_budget, cycle, active_cores
                )

    def _phase_account(self, vm, plan: MappingPlan, budget: int) -> None:
        """Fold the quantum into the machine-wide statistics."""
        self._paused_quanta += len(plan.paused_vcpu_ids)
        self.quantum_stats.add("quanta")
        self.quantum_stats.add("placed_vcpus", len(plan.placements))
        self.quantum_stats.add("paused_vcpus", len(plan.paused_vcpu_ids))
        # Utilisation accounting: executing core-cycles vs the machine's
        # healthy capacity (the consolidation-churn metric).  Weighted by
        # the quantum's cycle budget -- quanta clamped at events or
        # boundaries can be much shorter than a full timeslice, and an
        # unweighted count would overweight the machine state around them.
        self.quantum_stats.add("core_cycles_used", plan.cores_in_use * budget)
        self.quantum_stats.add(
            "core_cycles_capacity", self.machine.num_healthy_cores * budget
        )
        # Nominal (no-failure) capacity: healthy / nominal is the machine's
        # availability under failure timelines (the fleet SLO metric).
        self.quantum_stats.add(
            "core_cycles_nominal", self.machine.config.num_cores * budget
        )
        self._previous_vm_id = vm.vm_id
        self._previous_vm_reliable = vm.is_reliable
        self._previous_plan = plan

    def _run_placement(
        self,
        vcpu: VirtualCPU,
        assignment: CoreAssignment,
        budget: int,
        cycle: int,
        active_cores: int,
    ) -> None:
        machine = self.machine
        if (
            machine.fault_injector is not None
            and assignment.mode is ExecutionMode.PERFORMANCE
        ):
            machine.fault_injector.maybe_corrupt_privileged_register(vcpu)
        result = machine.timing_model.run_quantum(
            workload=vcpu.workload,
            assignment=assignment,
            cycle_budget=budget,
            start_cycle=cycle,
            vcpu_id=vcpu.vcpu_id,
            active_cores=active_cores,
        )
        vcpu.record_quantum(
            cycles=result.cycles,
            instructions=result.instructions,
            user_instructions=result.user_instructions,
            os_instructions=result.os_instructions,
        )

    def _run_fine_grained(
        self,
        vcpu: VirtualCPU,
        placement: VcpuPlacement,
        budget: int,
        cycle: int,
        active_cores: int,
    ) -> None:
        """Single-OS style execution: switch modes at every OS entry/exit."""
        machine = self.machine
        vocal, mute = self._pair_for_fine_grained(placement)
        remaining = budget
        while remaining > self.options.minimum_quantum_cycles:
            needs_dmr = vcpu.requires_dmr()
            if needs_dmr:
                assignment = CoreAssignment(
                    mode=ExecutionMode.DMR,
                    primary_core=vocal,
                    secondary_core=mute,
                    reunion_pair=machine.pair_factory(vocal, mute),
                )
                result = machine.timing_model.run_quantum(
                    workload=vcpu.workload,
                    assignment=assignment,
                    cycle_budget=remaining,
                    start_cycle=cycle,
                    vcpu_id=vcpu.vcpu_id,
                    stop_on_os_exit=True,
                    active_cores=active_cores,
                )
            else:
                if machine.fault_injector is not None:
                    machine.fault_injector.maybe_corrupt_privileged_register(vcpu)
                assignment = CoreAssignment(
                    mode=ExecutionMode.PERFORMANCE, primary_core=vocal
                )
                result = machine.timing_model.run_quantum(
                    workload=vcpu.workload,
                    assignment=assignment,
                    cycle_budget=remaining,
                    start_cycle=cycle,
                    vcpu_id=vcpu.vcpu_id,
                    stop_on_os_entry=True,
                    active_cores=active_cores,
                )
            vcpu.record_quantum(
                cycles=result.cycles,
                instructions=result.instructions,
                user_instructions=result.user_instructions,
                os_instructions=result.os_instructions,
            )
            remaining -= result.cycles

            if result.stop_reason is StopReason.OS_ENTRY:
                breakdown = machine.transition_engine.enter_dmr(
                    vocal_core=vocal,
                    mute_core=mute,
                    vcpu=vcpu,
                    flavor=TransitionFlavor.MMM_IPC,
                    current_cycle=cycle,
                )
                cost = int(breakdown.total_cycles * self.options.transition_cost_scale)
                vcpu.record_mode_switch(cost)
                self._transitions += 1
                self._transition_cycles += cost
                remaining -= cost
            elif result.stop_reason is StopReason.OS_EXIT:
                breakdown = machine.transition_engine.leave_dmr(
                    vocal_core=vocal,
                    mute_core=mute,
                    vcpu=vcpu,
                    flavor=TransitionFlavor.MMM_IPC,
                    current_cycle=cycle,
                )
                cost = int(breakdown.total_cycles * self.options.transition_cost_scale)
                vcpu.record_mode_switch(cost)
                self._transitions += 1
                self._transition_cycles += cost
                remaining -= cost
            else:
                break

    def _pair_for_fine_grained(self, placement: VcpuPlacement) -> tuple[int, int]:
        assignment = placement.assignment
        if assignment.secondary_core is not None:
            return assignment.primary_core, assignment.secondary_core
        if placement.reserved_partner_core is not None:
            return assignment.primary_core, placement.reserved_partner_core
        raise SimulationError(
            "fine-grained mode switching needs a reserved partner core; "
            "use the MMM-IPC policy for PERFORMANCE_USER_ONLY VCPUs"
        )

    # ------------------------------------------------------------------ #
    # Timeslice-boundary transitions (consolidated server)
    # ------------------------------------------------------------------ #

    def _charge_boundary_transition(self, vm, plan: MappingPlan, cycle: int) -> int:
        """Charge Enter/Leave DMR at a boundary between VMs of different modes."""
        machine = self.machine
        previous_vm = machine.vms[self._previous_vm_id]
        # The previous slice's reliability as captured when it executed: a
        # ReliabilityModeChanged event between the slices must not erase (or
        # invent) the transition cost of the mode the machine actually ran.
        previous_was_reliable = bool(self._previous_vm_reliable)
        flavor = (
            TransitionFlavor.MMM_TP
            if machine.policy.name == "mmm-tp"
            else TransitionFlavor.MMM_IPC
        )
        costs = []
        if vm.is_reliable and not previous_was_reliable:
            # Entering the reliable VM's timeslice: each new DMR pair performs
            # an Enter-DMR transition (the performance VCPUs that were using
            # the cores are context switched out).
            outgoing = previous_vm.vcpus
            for index, placement in enumerate(plan.placements):
                assignment = placement.assignment
                if assignment.mode is not ExecutionMode.DMR:
                    continue
                vcpu = machine.vcpus[placement.vcpu_id]
                outgoing_vocal = outgoing[index % len(outgoing)] if outgoing else None
                breakdown = machine.transition_engine.enter_dmr(
                    vocal_core=assignment.primary_core,
                    mute_core=assignment.secondary_core,
                    vcpu=vcpu,
                    outgoing_vocal_vcpu=outgoing_vocal,
                    outgoing_mute_vcpu=(
                        outgoing[(index + 1) % len(outgoing)]
                        if outgoing and flavor is TransitionFlavor.MMM_TP
                        else None
                    ),
                    flavor=flavor,
                    current_cycle=cycle,
                )
                costs.append(breakdown.total_cycles)
                vcpu.record_mode_switch(breakdown.total_cycles)
        elif previous_was_reliable and not vm.is_reliable:
            # Leaving DMR: the pairs of the previous plan dissolve; the mute
            # cores are flushed (MMM-TP) and the incoming performance VCPUs
            # are context switched in.
            incoming = vm.vcpus
            previous_plan = self._previous_plan
            if previous_plan is not None:
                for index, placement in enumerate(previous_plan.placements):
                    assignment = placement.assignment
                    if assignment.mode is not ExecutionMode.DMR:
                        continue
                    vcpu = machine.vcpus[placement.vcpu_id]
                    breakdown = machine.transition_engine.leave_dmr(
                        vocal_core=assignment.primary_core,
                        mute_core=assignment.secondary_core,
                        vcpu=vcpu,
                        incoming_vocal_vcpu=(
                            incoming[index % len(incoming)] if incoming else None
                        ),
                        incoming_mute_vcpu=(
                            incoming[(index + 1) % len(incoming)]
                            if incoming and flavor is TransitionFlavor.MMM_TP
                            else None
                        ),
                        flavor=flavor,
                        current_cycle=cycle,
                    )
                    costs.append(breakdown.total_cycles)
                    vcpu.record_mode_switch(breakdown.total_cycles)
        if not costs:
            return 0
        # The pairs transition in parallel; the machine is unavailable for the
        # slowest of them, scaled to preserve the paper's amortisation ratio.
        cost = int(max(costs) * self.options.transition_cost_scale)
        self._transitions += len(costs)
        self._transition_cycles += cost
        return cost

    # ------------------------------------------------------------------ #
    # Measurement bookkeeping
    # ------------------------------------------------------------------ #

    def _reset_measurement_state(self) -> None:
        machine = self.machine
        for vcpu in machine.vcpus.values():
            vcpu.committed_instructions = 0
            vcpu.committed_user_instructions = 0
            vcpu.committed_os_instructions = 0
            vcpu.active_cycles = 0
            vcpu.mode_switches = 0
            vcpu.mode_switch_cycles = 0
        self._transitions = 0
        self._transition_cycles = 0
        self._paused_quanta = 0
        self.quantum_stats = StatSet()
        # The engine's counters feed enter/leave_dmr_transitions and the
        # average transition costs of the result; without this reset they
        # would include warmup-period transitions that the simulator's own
        # counters (reset above) exclude.  The fault injector's counts are
        # read beside the violation log, so both cover the measured window.
        machine.transition_engine.reset_stats()
        machine.violation_log.events.clear()
        if machine.fault_injector is not None:
            machine.fault_injector.stats = StatSet()

    def _violation_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.machine.violation_log.events:
            counts[event.kind.name] = counts.get(event.kind.name, 0) + 1
        return counts
