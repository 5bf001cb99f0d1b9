"""Invariant oracles: machine-level checks run against every fuzz case.

Each oracle inspects one finished run -- the
:class:`~repro.sim.results.SimulationResult`, the machine's final state and
a white-box trace of per-quantum observations -- and reports every breach as
a structured :class:`InvariantViolation`.  The white-box trace comes from
:class:`ObservedSimulator`, a :class:`~repro.sim.simulator.Simulator`
subclass that snapshots the mapping plan, the retired-core set and the
timeline position at the execute phase of every quantum (transitions are
charged before the execute phase runs, so the snapshot sees exactly what the
timing model is about to execute).

The oracles are deliberately *timing-model agnostic*: they check budget
accounting, lifecycle conservation and plan-shape invariants, none of which
depend on instruction-level behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.sim.results import SimulationResult
from repro.sim.simulator import SimulationOptions, Simulator
from repro.sim.timeline import Timeline

__all__ = [
    "ORACLES",
    "InvariantViolation",
    "ObservedSimulator",
    "OracleContext",
    "QuantumObservation",
    "observe_run",
    "planted_arrival_oracle",
    "run_oracles",
]


@dataclass(frozen=True)
class InvariantViolation:
    """One breach of one oracle's invariant, on one case."""

    oracle: str
    case_id: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.case_id}: {self.detail}"


@dataclass(frozen=True)
class QuantumObservation:
    """White-box snapshot of one quantum, taken at the execute phase."""

    cycle: int
    vm_id: int
    #: Whether the quantum falls inside the measured window.
    measuring: bool
    policy_name: str
    #: DMR pairings in the executed plan: (vcpu_id, primary, secondary).
    pairs: Tuple[Tuple[int, int, int], ...]
    #: Every core the plan occupies (assignments plus reserved partners).
    occupied: FrozenSet[int]
    #: The machine's retired-core set when the quantum executed.
    retired: FrozenSet[int]
    #: Timeline events applied before this quantum ran.
    events_applied: int


class ObservedSimulator(Simulator):
    """A simulator that records a :class:`QuantumObservation` per quantum."""

    def __init__(self, machine, options, timeline=None) -> None:
        super().__init__(machine, options, timeline=timeline)
        self.observations: List[QuantumObservation] = []

    def _phase_execute(self, vm, plan, effective_budget, cycle):
        self.observations.append(
            QuantumObservation(
                cycle=cycle,
                vm_id=vm.vm_id,
                measuring=self._measuring,
                policy_name=self.machine.policy.name,
                pairs=tuple(
                    sorted(
                        (
                            placement.vcpu_id,
                            placement.assignment.primary_core,
                            placement.assignment.secondary_core,
                        )
                        for placement in plan.placements
                        if placement.assignment.secondary_core is not None
                    )
                ),
                occupied=frozenset(
                    core
                    for placement in plan.placements
                    for core in placement.occupied_cores
                ),
                retired=self.machine.retired_cores,
                events_applied=self._events_applied,
            )
        )
        super()._phase_execute(vm, plan, effective_budget, cycle)


def observe_run(
    machine, options: SimulationOptions, timeline: Optional[Timeline] = None
) -> Tuple[SimulationResult, List[QuantumObservation]]:
    """Run one machine under observation; return (result, observations)."""
    simulator = ObservedSimulator(machine, options, timeline=timeline)
    result = simulator.run()
    return result, simulator.observations


@dataclass
class OracleContext:
    """Everything the oracles inspect about one finished run."""

    machine: object
    result: SimulationResult
    options: SimulationOptions
    timeline: Timeline
    observations: List[QuantumObservation]
    #: Names of every VM built into the machine (active or deferred).
    roster_names: Tuple[str, ...]
    #: Names active at cycle 0 (``present_at_start``).
    initial_active: FrozenSet[str] = frozenset()
    extra: Dict[str, object] = field(default_factory=dict)


Oracle = Callable[[OracleContext], List[str]]

#: The oracle registry: name -> checker returning violation details.
ORACLES: Dict[str, Oracle] = {}


def oracle(name: str) -> Callable[[Oracle], Oracle]:
    """Register one invariant checker under ``name``."""

    def register(checker: Oracle) -> Oracle:
        ORACLES[name] = checker
        return checker

    return register


def run_oracles(
    context: OracleContext,
    case_id: str,
    extra: Optional[Dict[str, Oracle]] = None,
) -> List[InvariantViolation]:
    """Run every registered oracle (plus ``extra``) against one run."""
    checkers = dict(ORACLES)
    if extra:
        checkers.update(extra)
    violations: List[InvariantViolation] = []
    for name in sorted(checkers):
        for detail in checkers[name](context):
            violations.append(
                InvariantViolation(oracle=name, case_id=case_id, detail=detail)
            )
    return violations


# ===================================================================== #
# The shipped oracles
# ===================================================================== #


@oracle("cycle-accounting")
def check_cycle_accounting(context: OracleContext) -> List[str]:
    """Core-cycle budgets are conserved over the measured window.

    The simulator's quanta tile the measured window exactly, so the nominal
    capacity must equal ``num_cores * total_cycles`` to the cycle; used
    cycles can never exceed the healthy capacity, which can never exceed
    nominal.
    """
    stats = context.result.quantum_stats
    used = float(stats.get("core_cycles_used", 0.0))
    capacity = float(stats.get("core_cycles_capacity", 0.0))
    nominal = float(stats.get("core_cycles_nominal", 0.0))
    details: List[str] = []
    expected = context.machine.config.num_cores * context.result.total_cycles
    if int(nominal) != expected:
        details.append(
            f"nominal core-cycles {int(nominal)} != cores*window {expected}"
        )
    if used > capacity:
        details.append(f"used core-cycles {used} exceed healthy capacity {capacity}")
    if capacity > nominal:
        details.append(f"healthy capacity {capacity} exceeds nominal {nominal}")
    if context.result.total_cycles > 0 and not stats.get("quanta"):
        details.append("a non-empty measured window executed zero quanta")
    return details


@oracle("pause-accounting")
def check_pause_accounting(context: OracleContext) -> List[str]:
    """The two independent paused-VCPU counters agree."""
    from_quanta = int(context.result.quantum_stats.get("paused_vcpus", 0))
    if context.result.paused_vcpu_quanta != from_quanta:
        return [
            f"paused_vcpu_quanta {context.result.paused_vcpu_quanta} != "
            f"quantum_stats paused_vcpus {from_quanta}"
        ]
    return []


@oracle("vm-conservation")
def check_vm_conservation(context: OracleContext) -> List[str]:
    """No VM is lost or duplicated across admit/drain churn.

    The result reports every VM built into the machine exactly once, and the
    machine's final active set equals the initial actives with the applied
    arrive/depart events folded in, in order.
    """
    details: List[str] = []
    reported = sorted(vm.name for vm in context.result.vm_results)
    expected = sorted(context.roster_names)
    if reported != expected:
        details.append(f"result names {reported} != roster {expected}")
    end = context.result.warmup_cycles + context.result.total_cycles
    active = set(context.initial_active)
    for event in context.timeline.sorted_events():
        if event.cycle >= end:
            break
        if event.KIND == "vm-arrived":
            active.add(event.vm_name)
        elif event.KIND == "vm-departed":
            active.discard(event.vm_name)
    final = {vm.name for vm in context.machine.active_vms}
    if final != active:
        details.append(
            f"final active set {sorted(final)} != replayed churn {sorted(active)}"
        )
    return details


@oracle("dmr-pairs")
def check_dmr_pairs(context: OracleContext) -> List[str]:
    """DMR pairs never split without a recorded transition.

    Between two quanta of the same VM with no timeline event in between, a
    policy has no reason to re-pair: every policy plans from the VCPUs and
    their DMR requirements alone, so the executed plan's DMR pairings must be
    identical.  (Events legitimately force re-planning.)
    """
    details: List[str] = []
    last_by_vm: Dict[int, QuantumObservation] = {}
    for observation in context.observations:
        previous = last_by_vm.get(observation.vm_id)
        if (
            previous is not None
            and observation.policy_name == previous.policy_name
            and observation.events_applied == previous.events_applied
            and observation.pairs != previous.pairs
        ):
            details.append(
                f"VM {observation.vm_id} re-paired at cycle {observation.cycle} "
                f"with no event since cycle {previous.cycle}: "
                f"{previous.pairs} -> {observation.pairs}"
            )
        last_by_vm[observation.vm_id] = observation
    return details


@oracle("retired-cores")
def check_retired_cores(context: OracleContext) -> List[str]:
    """Retired cores never appear in an executed mapping plan."""
    details: List[str] = []
    for observation in context.observations:
        overlap = observation.occupied & observation.retired
        if overlap:
            details.append(
                f"cycle {observation.cycle}: retired core(s) "
                f"{sorted(overlap)} scheduled by the executed plan"
            )
    return details


@oracle("timeline-ledger")
def check_timeline_ledger(context: OracleContext) -> List[str]:
    """Applied + pending events account for the whole timeline, per kind."""
    result = context.result
    details: List[str] = []
    total = len(context.timeline)
    if result.timeline_events_applied + result.timeline_events_pending != total:
        details.append(
            f"applied {result.timeline_events_applied} + pending "
            f"{result.timeline_events_pending} != timeline length {total}"
        )
    if sum(result.timeline_stats.values()) != result.timeline_events_applied:
        details.append(
            f"per-kind stats {result.timeline_stats} sum to "
            f"{sum(result.timeline_stats.values())}, not the applied count "
            f"{result.timeline_events_applied}"
        )
    end = result.warmup_cycles + result.total_cycles
    expected: Dict[str, int] = {}
    for event in context.timeline.sorted_events():
        if event.cycle < end:
            expected[event.KIND] = expected.get(event.KIND, 0) + 1
    if dict(sorted(expected.items())) != dict(result.timeline_stats):
        details.append(
            f"applied-by-kind {dict(result.timeline_stats)} != events inside "
            f"the horizon {dict(sorted(expected.items()))}"
        )
    return details


#: Violation kinds that can only come from an injected fault.  The
#: protection-path kinds (``TLB_DENIED``, ``PAB_BLOCKED``) fire fault-free
#: -- e.g. a ``ReliabilityModeChanged`` flip to performance mode leaves the
#: VM's pages reliable-only, so the PAB rightly blocks its own stores.
FAULT_ONLY_KINDS = (
    "DMR_DETECTED",
    "TRANSITION_VERIFY_FAILED",
    "SILENT_CORRUPTION",
)


@oracle("fault-detection")
def check_fault_detection(context: OracleContext) -> List[str]:
    """Detection accounting is consistent with the machine's injector.

    A machine with no fault injector cannot raise faults, so nothing may be
    *detected* (and nothing silently corrupted), regardless of how many
    ``FaultRateBurst`` windows the timeline opened (they are
    counted-no-effect events there).
    """
    if context.machine.fault_injector is not None:
        return []
    counts = context.result.violation_counts
    faulty = {
        kind: counts[kind] for kind in FAULT_ONLY_KINDS if counts.get(kind)
    }
    if faulty:
        return [
            f"machine has no fault injector but recorded fault detections {faulty}"
        ]
    return []


def planted_arrival_oracle(context: OracleContext) -> List[str]:
    """The planted bug: 'no VM may ever arrive mid-run'.

    A deliberately false invariant used by the shrinker tests and the CI
    planted-violation leg: any applied ``vm-arrived`` event breaches it, and
    the minimal reproducing timeline is exactly one arrival.
    """
    arrivals = int(context.result.timeline_stats.get("vm-arrived", 0))
    if arrivals:
        return [f"{arrivals} vm-arrived event(s) applied"]
    return []
