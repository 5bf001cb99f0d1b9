"""Fleet cells: the ``fleet`` job kind and its frame samples.

A fleet run decomposes into one :class:`~repro.sim.jobs.ExperimentJob` per
machine: the job's params carry the machine's identity (name, rack), its
burst-slot count, its :class:`~repro.sim.timeline.Timeline` and the
scheduler's per-machine counters, so each cell is a self-contained,
cacheable simulation of the churn server that ``_CELL_MACHINES`` in
:mod:`repro.sim.jobs` describes -- it runs through
:func:`~repro.sim.jobs.simulate_cell`, so the engine's backends, on-disk
cache and batch sharing apply unchanged.  :func:`fleet_samples` folds the
per-machine cells back into fleet-level SLO samples, one per (scenario,
seed): p99 degraded throughput across the machines, availability (delivered
vs nominal core-cycle capacity), migration count and upgrade exposure.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.common.stats import left_sum
from repro.sim.fleet.cluster import FleetTopology
from repro.sim.fleet.scheduler import BURST_SLOTS, FleetPlan, FleetScheduler, MachinePlan
from repro.sim.fleet.traffic import scenario_model
from repro.sim.jobs import ExperimentJob, register_job_kind, simulate_cell
from repro.sim.settings import ExperimentSettings

__all__ = [
    "execute_fleet_cell",
    "fleet_jobs",
    "fleet_plan",
    "fleet_samples",
    "fleet_topology",
]


def fleet_topology(settings: ExperimentSettings) -> FleetTopology:
    """The fleet layout the settings describe.

    A fleet has at most one rack per machine: more racks than machines
    lay the fleet out one machine per rack.
    """
    return FleetTopology.build(
        settings.fleet_machines, min(settings.fleet_racks, settings.fleet_machines)
    )


def fleet_plan(
    settings: ExperimentSettings, scenario: str, seed: int
) -> FleetPlan:
    """Generate and schedule one fleet scenario, deterministically.

    Pure function of ``(settings, scenario, seed)``: the traffic model and
    the scheduler both derive all randomness from the seed via CRC-forked
    :class:`~repro.common.rng.DeterministicRng` streams, so two processes
    always produce byte-identical per-machine timelines.
    """
    topology = fleet_topology(settings)
    script = scenario_model(scenario).script(topology, settings, seed)
    return FleetScheduler(topology, settings).plan(script)


# ===================================================================== #
# Enumeration
# ===================================================================== #


def _machine_params(
    scenario: str, plan: MachinePlan
) -> Tuple[Tuple[str, object], ...]:
    params: Dict[str, object] = {
        "machine": plan.site.name,
        "rack": plan.site.rack,
        "extra_vms": BURST_SLOTS,
        "migrations_in": plan.migrations_in,
        "migrations_out": plan.migrations_out,
        "placements": plan.placements,
        "exposure_cycles": plan.exposure_cycles,
    }
    if plan.timeline:
        params["timeline"] = plan.timeline.to_json()
    return tuple(sorted(params.items()))


def fleet_jobs(settings: ExperimentSettings) -> List[ExperimentJob]:
    """Every (scenario, machine, seed) cell of the fleet experiment."""
    cell = settings.cell_settings()
    jobs: List[ExperimentJob] = []
    for scenario in settings.fleet_scenarios:
        for seed in settings.seeds:
            plan = fleet_plan(settings, scenario, seed)
            for machine_plan in plan.machines:
                jobs.append(
                    ExperimentJob(
                        kind="fleet",
                        workload=machine_plan.workload,
                        variant=scenario,
                        seed=seed,
                        settings=cell,
                        params=_machine_params(scenario, machine_plan),
                    )
                )
    return jobs


# ===================================================================== #
# Execution (one machine's simulation)
# ===================================================================== #


@register_job_kind("fleet")
def execute_fleet_cell(job: ExperimentJob) -> Dict[str, object]:
    """Simulate one fleet machine under its scripted timeline.

    ``availability`` is the machine's delivered core-cycle capacity as a
    fraction of its nominal (no-failure) capacity over the measured window:
    1.0 on an untouched machine, below it while storm-failed cores are out
    of service.  The scheduler's counters (migrations, exposure) are echoed
    from the job params so every cached metrics dict is self-contained.
    """
    run = simulate_cell(job)
    used = float(run.quantum_stats.get("core_cycles_used", 0.0))
    capacity = float(run.quantum_stats.get("core_cycles_capacity", 0.0))
    nominal = float(run.quantum_stats.get("core_cycles_nominal", 0.0))
    return {
        "machine_throughput": run.overall_throughput(),
        "availability": capacity / nominal if nominal else 1.0,
        "utilization": used / capacity if capacity else 0.0,
        "migrations_in": int(job.param("migrations_in", 0)),
        "migrations_out": int(job.param("migrations_out", 0)),
        "exposure_cycles": int(job.param("exposure_cycles", 0)),
        "events_applied": run.timeline_events_applied,
        "transitions": run.transitions,
    }


# ===================================================================== #
# Frame samples (fleet SLOs, one sample per scenario x seed)
# ===================================================================== #


def tail_percentile(values: Sequence[float], fraction: float = 0.01) -> float:
    """The ``fraction`` low quantile with linear interpolation.

    ``fraction=0.01`` is the p99 *guarantee*: 99% of machines achieve at
    least this value.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def fleet_samples(
    request, jobs: Sequence[ExperimentJob], results: Mapping[ExperimentJob, Mapping[str, object]]
) -> Iterator[Tuple[Tuple[object, ...], Dict[str, object]]]:
    """Fold per-machine cells into fleet SLO samples, one per (scenario, seed).

    The ``mean_ci`` aggregation of the schema then averages the per-seed
    fleet samples into across-seed confidence intervals, exactly like the
    other multi-seed experiments.
    """
    groups: Dict[Tuple[str, int], List[ExperimentJob]] = {}
    for job in jobs:
        groups.setdefault((job.variant, job.seed), []).append(job)
    for (scenario, _seed), members in groups.items():
        throughputs = [float(results[job]["machine_throughput"]) for job in members]
        availabilities = [float(results[job]["availability"]) for job in members]
        yield (scenario,), {
            "fleet_throughput": left_sum(throughputs),
            "p99_degraded_throughput": tail_percentile(throughputs),
            "availability": left_sum(availabilities) / len(availabilities),
            "migrations": sum(int(job.param("migrations_in", 0)) for job in members),
            "exposure_cycles": sum(
                int(job.param("exposure_cycles", 0)) for job in members
            ),
        }
