"""Fuzz cells: the ``fuzz`` job kind, its frame samples and case replay.

Every fuzz case is one ordinary :class:`~repro.sim.jobs.ExperimentJob`: the
job's params carry the generated scenario's canonical JSON, so the cell is a
pure, cacheable function of ``(settings, profile, case, seed)`` -- the
engine's backends parallelise a campaign for free and the packed store
caches clean cases.  When a case breaches an oracle, the executor shrinks it
*inside the cell* and returns the ready-to-commit repro snippet with the
metrics, so shrinking is cached and byte-identical across backends too.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.core.machine import MixedModeMachine
from repro.errors import (
    ConfigurationError,
    ExperimentError,
    SchedulingError,
    SimulationError,
)
from repro.sim.fuzz.generate import (
    FuzzScenario,
    generate_scenario,
    parse_case_id,
)
from repro.sim.fuzz.oracles import (
    ORACLES,
    InvariantViolation,
    OracleContext,
    observe_run,
    planted_arrival_oracle,
    run_oracles,
)
from repro.sim.fuzz.shrink import repro_snippet, shrink
from repro.sim.jobs import ExperimentJob, register_job_kind
from repro.sim.settings import ExperimentSettings

__all__ = [
    "check_scenario",
    "execute_fuzz_cell",
    "fuzz_jobs",
    "fuzz_samples",
    "oracle_metric_names",
    "reproduce_case",
    "scenario_machine",
]

#: The extra oracle planted cells run (see ``planted_arrival_oracle``).
PLANTED_ORACLE = "planted-arrival"


# ===================================================================== #
# Enumeration
# ===================================================================== #


def fuzz_jobs(
    settings: ExperimentSettings, planted: bool = False
) -> List[ExperimentJob]:
    """Every (profile, case, seed) cell of the fuzz campaign."""
    cell = settings.cell_settings()
    jobs: List[ExperimentJob] = []
    for profile in settings.fuzz_profiles:
        for case in range(settings.fuzz_cases):
            for seed in settings.seeds:
                scenario = generate_scenario(settings, profile, case, seed)
                params: Dict[str, object] = {
                    "case": case,
                    "profile": profile,
                    "scenario": scenario.to_json(),
                }
                if planted:
                    params["planted"] = True
                jobs.append(
                    ExperimentJob(
                        kind="fuzz",
                        workload=scenario.roster[0].workload,
                        variant=profile,
                        seed=seed,
                        settings=cell,
                        params=tuple(sorted(params.items())),
                    )
                )
    return jobs


# ===================================================================== #
# Execution (one scenario's simulation + oracle sweep + shrink)
# ===================================================================== #


def scenario_machine(
    settings: ExperimentSettings, scenario: FuzzScenario
) -> MixedModeMachine:
    """Build the machine one scenario describes, at the settings' scales."""
    specs = [
        replace(
            vm,
            phase_scale=settings.phase_scale,
            footprint_scale=settings.footprint_scale,
        )
        for vm in scenario.roster
    ]
    return MixedModeMachine(
        config=settings.config(),
        vm_specs=specs,
        policy=scenario.policy,
        seed=scenario.seed,
    )


def check_scenario(
    settings: ExperimentSettings, scenario: FuzzScenario, planted: bool = False
) -> Tuple[List[InvariantViolation], int]:
    """Run one scenario and every oracle; return (violations, events applied).

    A simulator crash is itself an invariant breach -- valid-by-construction
    scenarios must never raise -- and is reported as a ``no-crash``
    violation so the shrinker can target it like any other oracle.
    """
    machine = scenario_machine(settings, scenario)
    options = replace(
        settings.options(),
        total_cycles=scenario.total_cycles,
        warmup_cycles=scenario.warmup_cycles,
    )
    try:
        result, observations = observe_run(
            machine, options, timeline=scenario.timeline
        )
    except (SimulationError, ConfigurationError, SchedulingError) as error:
        violation = InvariantViolation(
            oracle="no-crash",
            case_id=scenario.case_id,
            detail=f"{type(error).__name__}: {error}",
        )
        return [violation], 0
    context = OracleContext(
        machine=machine,
        result=result,
        options=options,
        timeline=scenario.timeline,
        observations=observations,
        roster_names=tuple(vm.name for vm in scenario.roster),
        initial_active=frozenset(
            vm.name for vm in scenario.roster if vm.present_at_start
        ),
    )
    extra = {PLANTED_ORACLE: planted_arrival_oracle} if planted else None
    violations = run_oracles(context, scenario.case_id, extra=extra)
    return violations, result.timeline_events_applied


def oracle_metric_names(planted: bool = False) -> List[str]:
    """The per-oracle violation metric columns, in sorted oracle order."""
    names = sorted(ORACLES) + ["no-crash"]
    if planted:
        names.append(PLANTED_ORACLE)
    return ["viol_" + name.replace("-", "_") for name in sorted(names)]


@register_job_kind("fuzz")
def execute_fuzz_cell(job: ExperimentJob) -> Dict[str, object]:
    """Check one generated scenario against every invariant oracle.

    Clean cases return zeroed violation counters.  A breached case is shrunk
    to a minimal reproduction right here, so the expensive search runs once,
    is cached with the metrics, and stays byte-identical across backends;
    the ``repro`` metric carries the ready-to-commit snippet.
    """
    settings = job.settings
    if settings is None:
        raise ExperimentError(f"job {job.label} needs ExperimentSettings")
    scenario = FuzzScenario.from_json(str(job.param("scenario")))
    planted = bool(job.param("planted", False))
    violations, events_applied = check_scenario(settings, scenario, planted=planted)
    metrics: Dict[str, object] = {
        "cases": 1,
        "events": len(scenario.timeline),
        "events_applied": events_applied,
        "violations": len(violations),
        "shrink_steps": 0,
        "case_id": scenario.case_id,
        "repro": "",
    }
    for name in oracle_metric_names(planted=True):
        metrics[name] = 0
    for violation in violations:
        metrics["viol_" + violation.oracle.replace("-", "_")] += 1
    if violations:
        shrunk = shrink(
            scenario,
            lambda candidate: check_scenario(settings, candidate, planted=planted)[0],
        )
        metrics["shrink_steps"] = shrunk.steps
        metrics["repro"] = repro_snippet(shrunk.scenario, shrunk.violations)
    return metrics


# ===================================================================== #
# Frame samples (one sample per case cell, keyed by profile)
# ===================================================================== #


def fuzz_samples(
    request,
    jobs: Sequence[ExperimentJob],
    results: Mapping[ExperimentJob, Mapping[str, object]],
) -> Iterator[Tuple[Tuple[object, ...], Dict[str, object]]]:
    """One numeric sample per cell; the schema sums them per profile."""
    for job in jobs:
        metrics = results[job]
        yield (job.variant,), {
            name: value
            for name, value in metrics.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }


# ===================================================================== #
# Verbose replay (`repro fuzz --reproduce <case-id>`)
# ===================================================================== #


def reproduce_case(
    settings: ExperimentSettings, case_id: str, planted: bool = False
) -> int:
    """Regenerate one case and replay it verbosely; return an exit code.

    Raises :class:`~repro.errors.ExperimentError` on a malformed or unknown
    case id (the CLI maps that to exit code 2); returns 1 when the case
    breaches an oracle (after printing the shrunk reproduction) and 0 when
    it is clean.
    """
    profile, case, seed = parse_case_id(case_id)
    scenario = generate_scenario(settings, profile, case, seed)
    print(f"fuzz case {scenario.case_id}")
    print(
        f"  policy={scenario.policy}  total_cycles={scenario.total_cycles}  "
        f"warmup_cycles={scenario.warmup_cycles}"
    )
    print("  roster:")
    for vm in scenario.roster:
        presence = "present" if vm.present_at_start else "deferred"
        print(
            f"    {vm.name}: workload={vm.workload} vcpus={vm.num_vcpus} "
            f"mode={vm.reliability.name} ({presence})"
        )
    print(f"  timeline ({len(scenario.timeline)} events):")
    for event in scenario.timeline.events:
        print(f"    {event!r}")
    violations, events_applied = check_scenario(settings, scenario, planted=planted)
    print(f"  events applied: {events_applied}/{len(scenario.timeline)}")
    breached = {violation.oracle for violation in violations}
    names = sorted(ORACLES) + (["no-crash"] if "no-crash" in breached else [])
    if planted:
        names.append(PLANTED_ORACLE)
    for name in sorted(names):
        status = "VIOLATION" if name in breached else "ok"
        print(f"  oracle {name}: {status}")
    for violation in violations:
        print(f"    {violation}")
    if not violations:
        print("case is clean")
        return 0
    shrunk = shrink(
        scenario,
        lambda candidate: check_scenario(settings, candidate, planted=planted)[0],
    )
    print(
        f"shrunk in {shrunk.steps} step(s) ({shrunk.attempts} candidate runs) "
        f"to {len(shrunk.scenario.timeline)} event(s):"
    )
    print(repro_snippet(shrunk.scenario, shrunk.violations))
    return 1
