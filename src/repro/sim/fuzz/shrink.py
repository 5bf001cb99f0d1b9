"""Automatic shrinking of failing scenarios to a minimal reproduction.

Given a scenario and a checker (scenario -> violations), :func:`shrink`
greedily reduces the scenario while the *same oracle* keeps firing: it drops
timeline events delta-debugging style (halves first, then singles), removes
roster VMs (together with the events that name them), collapses VCPU counts
and truncates the horizon, re-checking after every candidate and keeping
only reductions that still reproduce.  The search is plain ordered
iteration -- no randomness -- so the minimal scenario is a deterministic
function of the failing one, which keeps shrinking cacheable inside the
cell executor.

A candidate that *crashes* the simulator is not a reproduction unless the
target oracle is the crash itself: the checker is expected to map crashes to
a ``no-crash`` violation, so the same-oracle rule handles both uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Sequence, Tuple

from repro.core.machine import VmSpec
from repro.sim.fuzz.generate import FuzzScenario
from repro.sim.fuzz.oracles import InvariantViolation
from repro.sim.timeline import Timeline, TimelineEvent

__all__ = ["ShrinkResult", "repro_snippet", "shrink"]

#: Horizon truncation never goes below this many measured cycles.
MIN_TOTAL_CYCLES = 1_000

Checker = Callable[[FuzzScenario], List[InvariantViolation]]


@dataclass(frozen=True)
class ShrinkResult:
    """The outcome of shrinking one failing scenario."""

    scenario: FuzzScenario
    violations: Tuple[InvariantViolation, ...]
    #: Accepted reductions (0 when the scenario was already minimal).
    steps: int
    #: Candidate scenarios checked (the search cost).
    attempts: int


def _with_events(scenario: FuzzScenario, events: Sequence[TimelineEvent]) -> FuzzScenario:
    return replace(scenario, timeline=Timeline(events=tuple(events)))


def _without_vm(scenario: FuzzScenario, vm: VmSpec) -> FuzzScenario:
    """Drop one VM and every event that names it."""
    roster = tuple(entry for entry in scenario.roster if entry.name != vm.name)
    events = tuple(
        event
        for event in scenario.timeline.events
        if getattr(event, "vm_name", None) != vm.name
    )
    return replace(scenario, roster=roster, timeline=Timeline(events=events))


class _Shrinker:
    def __init__(self, check: Checker, target: str) -> None:
        self.check = check
        self.target = target
        self.steps = 0
        self.attempts = 0
        self.violations: Tuple[InvariantViolation, ...] = ()

    def reproduces(self, candidate: FuzzScenario) -> bool:
        self.attempts += 1
        violations = self.check(candidate)
        if any(violation.oracle == self.target for violation in violations):
            self.violations = tuple(violations)
            return True
        return False

    def accept(self, candidate: FuzzScenario) -> FuzzScenario:
        self.steps += 1
        return candidate

    # -------------------------------------------------------------- #
    # The individual reduction passes (each returns the best scenario
    # it reached and loops internally until it stops helping)
    # -------------------------------------------------------------- #

    def drop_events(self, scenario: FuzzScenario) -> FuzzScenario:
        """ddmin-style event removal: large chunks first, then singles."""
        events = list(scenario.timeline.events)
        chunk = max(1, len(events) // 2)
        while chunk >= 1:
            index = 0
            while index < len(events):
                candidate_events = events[:index] + events[index + chunk:]
                candidate = _with_events(scenario, candidate_events)
                if self.reproduces(candidate):
                    scenario = self.accept(candidate)
                    events = candidate_events
                    # Re-test the same index: the next chunk slid into it.
                else:
                    index += chunk
            chunk //= 2
        return scenario

    def drop_vms(self, scenario: FuzzScenario) -> FuzzScenario:
        """Remove roster VMs, keeping at least one present at start."""
        index = 0
        while index < len(scenario.roster):
            vm = scenario.roster[index]
            remaining = [entry for entry in scenario.roster if entry.name != vm.name]
            if not any(entry.present_at_start for entry in remaining):
                index += 1
                continue
            candidate = _without_vm(scenario, vm)
            if self.reproduces(candidate):
                scenario = self.accept(candidate)
                # Same index now names the next VM.
            else:
                index += 1
        return scenario

    def collapse_vcpus(self, scenario: FuzzScenario) -> FuzzScenario:
        """Reduce each VM to a single VCPU where the failure survives."""
        for index, vm in enumerate(scenario.roster):
            if vm.num_vcpus <= 1:
                continue
            roster = list(scenario.roster)
            roster[index] = replace(vm, num_vcpus=1)
            candidate = replace(scenario, roster=tuple(roster))
            if self.reproduces(candidate):
                scenario = self.accept(candidate)
        return scenario

    def truncate_horizon(self, scenario: FuzzScenario) -> FuzzScenario:
        """Strip warmup and halve the measured window while reproducing."""
        if scenario.warmup_cycles > 0:
            candidate = replace(scenario, warmup_cycles=0)
            if self.reproduces(candidate):
                scenario = self.accept(candidate)
        while scenario.total_cycles > MIN_TOTAL_CYCLES:
            shorter = max(MIN_TOTAL_CYCLES, scenario.total_cycles // 2)
            if shorter == scenario.total_cycles:
                break
            candidate = replace(scenario, total_cycles=shorter)
            if not self.reproduces(candidate):
                break
            scenario = self.accept(candidate)
        return scenario


def shrink(scenario: FuzzScenario, check: Checker) -> ShrinkResult:
    """Reduce a failing scenario to a minimal one that still reproduces.

    The *target* is the oracle of the first violation on the unshrunk
    scenario; a candidate reproduces when that same oracle still fires.
    Returns the scenario unchanged (with zero steps) when it does not fail
    at all.
    """
    initial = check(scenario)
    if not initial:
        return ShrinkResult(scenario=scenario, violations=(), steps=0, attempts=1)
    shrinker = _Shrinker(check, target=initial[0].oracle)
    shrinker.violations = tuple(initial)
    shrinker.attempts = 1
    previous_steps = -1
    while shrinker.steps != previous_steps:
        previous_steps = shrinker.steps
        scenario = shrinker.drop_events(scenario)
        scenario = shrinker.drop_vms(scenario)
        scenario = shrinker.collapse_vcpus(scenario)
        scenario = shrinker.truncate_horizon(scenario)
    return ShrinkResult(
        scenario=scenario,
        violations=shrinker.violations,
        steps=shrinker.steps,
        attempts=shrinker.attempts,
    )


def repro_snippet(scenario: FuzzScenario, violations: Sequence[InvariantViolation]) -> str:
    """A ready-to-commit reproduction of one (shrunk) failing scenario.

    The snippet is valid Python built from the repo's own public API, plus
    the one-line replay command for the case it came from -- paste the code
    into a regression test, or re-run the case verbosely with
    ``repro fuzz --reproduce``.
    """
    lines = [
        f"# fuzz case {scenario.case_id} (profile={scenario.profile}, "
        f"policy={scenario.policy})",
    ]
    for violation in violations:
        lines.append(f"#   {violation.oracle}: {violation.detail}")
    lines.append(
        f"# replay: python -m repro fuzz --reproduce {scenario.case_id}"
    )
    lines.append("roster = [")
    for vm in scenario.roster:
        lines.append(
            f"    VmSpec(name={vm.name!r}, workload={vm.workload!r}, "
            f"num_vcpus={vm.num_vcpus}, "
            f"reliability=ReliabilityMode.{vm.reliability.name}, "
            f"present_at_start={vm.present_at_start}),"
        )
    lines.append("]")
    if scenario.timeline.events:
        lines.append("timeline = Timeline.of(")
        for event in scenario.timeline.events:
            lines.append(f"    {event!r},")
        lines.append(")")
    else:
        lines.append("timeline = Timeline()")
    lines.append(
        f"# policy={scenario.policy!r}, total_cycles={scenario.total_cycles}, "
        f"warmup_cycles={scenario.warmup_cycles}, seed={scenario.seed}"
    )
    return "\n".join(lines)
