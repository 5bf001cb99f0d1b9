"""Shared experiment settings.

:class:`ExperimentSettings` holds the scaled-down run lengths and the
capacity/footprint scale factor (see ``evaluation_system_config``) shared by
every reproduction experiment, so that the whole evaluation completes on a
laptop while preserving the relative behaviour the paper reports.

The settings value is a frozen dataclass of plain values: together with a
workload name, a configuration label and a seed it *fully describes* one
experiment cell, which is what makes the job model of
:mod:`repro.sim.jobs` picklable and its cache keys deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping, Sequence, Tuple

from repro.config.presets import evaluation_system_config
from repro.config.system import SystemConfig
from repro.errors import ExperimentError
from repro.sim.simulator import SimulationOptions
from repro.workloads.profiles import PAPER_WORKLOAD_NAMES

#: Timeslice assumed by the paper (1 ms at 3 GHz).
PAPER_TIMESLICE_CYCLES = 3_000_000


def paper_transition_cost_scale(timeslice_cycles: int) -> float:
    """The ``transition_cost_scale`` that keeps the paper's ratio of
    transition cost to timeslice length on a (scaled-down) timeslice."""
    return min(1.0, timeslice_cycles / PAPER_TIMESLICE_CYCLES)


@dataclass(frozen=True)
class ExperimentSettings:
    """Shared knobs of the reproduction experiments."""

    #: Factor by which cache capacities (and workload footprints) are scaled
    #: down relative to the paper's machine; 1 = full size.
    capacity_scale: int = 8
    #: Measured cycles per run (after warmup).
    total_cycles: int = 60_000
    #: Warmup cycles per run.
    warmup_cycles: int = 15_000
    #: Gang-scheduling timeslice used by the consolidated-server runs.
    timeslice_cycles: int = 25_000
    #: Scale applied to the workloads' user/OS phase lengths.
    phase_scale: float = 0.01
    #: Seeds to average over (the paper reports 95% confidence intervals
    #: over multiple runs).  Ten seeds by default: cells are cached and
    #: embarrassingly parallel, so the sweep is CI-cheap and the intervals
    #: are tight; ``--seeds``/:meth:`with_seeds` override it, and
    #: :meth:`quick` keeps a single seed for smoke tests.
    seeds: Tuple[int, ...] = tuple(range(10))
    #: Workloads to evaluate, in the paper's figure order.
    workloads: Tuple[str, ...] = PAPER_WORKLOAD_NAMES
    #: VCPUs exposed by the reliable guest (the paper uses 8 on 16 cores).
    reliable_vcpus: int = 8
    #: Enter/Leave pairs measured per workload by the Table 1 experiment.
    switch_transitions: int = 8
    #: Cache-warming cycles before the Table 1 measurement.
    switch_warmup_cycles: int = 8_000
    #: User/OS phase pairs timed per workload by the Table 2 experiment.
    frequency_phases: int = 3
    #: Phase scale at which the Table 2 phases are generated (the measured
    #: cycles are scaled back up by its inverse).
    frequency_phase_scale: float = 0.1
    #: Fault-injection trials per (configuration, fault site, seed) run by
    #: the ``faults`` spec (``repro faults --trials`` sets it; without the
    #: flag the spec runs this count, as ``run-all`` and ``export`` do).
    fault_trials_per_site: int = 25
    #: Failed-core counts swept by the graceful-degradation experiment (each
    #: count is one cell: that many cores fail on a schedule mid-run).
    degradation_failed_cores: Tuple[int, ...] = (0, 2, 4, 6)
    #: Deferred guest VMs that arrive and depart mid-run in the
    #: consolidation-churn experiment.
    churn_extra_vms: int = 2
    #: Machines in the fleet-scenario experiment (each machine is one
    #: independent per-machine simulation cell).
    fleet_machines: int = 8
    #: Racks the fleet's machines are grouped into (correlated failure
    #: storms strike whole racks; adjacent rack pairs share a power domain).
    fleet_racks: int = 2
    #: Traffic scenarios swept by the fleet experiment, in presentation
    #: order (see :data:`repro.sim.fleet.traffic.SCENARIO_NAMES`).
    fleet_scenarios: Tuple[str, ...] = (
        "diurnal",
        "flash-crowd",
        "failure-storm",
        "rolling-upgrade",
    )
    #: Scenarios the fuzz campaign generates per (profile, seed); each is
    #: one independent simulation cell checked against the invariant
    #: oracles.
    fuzz_cases: int = 6
    #: Generator profiles the fuzz campaign sweeps (see
    #: :data:`repro.sim.fuzz.generate.FUZZ_PROFILES`).
    fuzz_profiles: Tuple[str, ...] = ("churn-heavy", "failure-heavy", "mixed")

    @property
    def footprint_scale(self) -> float:
        """Workload footprints shrink with the cache capacities."""
        return 1.0 / self.capacity_scale

    def config(self) -> SystemConfig:
        """The (scaled) machine configuration used by the experiments."""
        return evaluation_system_config(
            capacity_scale=self.capacity_scale,
            timeslice_cycles=self.timeslice_cycles,
        )

    def transition_cost_scale(self) -> float:
        """Keep the paper's ratio of transition cost to timeslice length."""
        return paper_transition_cost_scale(self.timeslice_cycles)

    def options(self) -> SimulationOptions:
        """Simulation options shared by the timing experiments."""
        return SimulationOptions(
            total_cycles=self.total_cycles,
            warmup_cycles=self.warmup_cycles,
            transition_cost_scale=self.transition_cost_scale(),
        )

    @classmethod
    def quick(cls) -> "ExperimentSettings":
        """Very small settings for smoke tests of the experiment plumbing."""
        return cls(
            capacity_scale=16,
            total_cycles=12_000,
            warmup_cycles=4_000,
            timeslice_cycles=4_000,
            phase_scale=0.005,
            seeds=(0,),
            workloads=("apache", "pmake"),
            reliable_vcpus=4,
            switch_transitions=2,
            switch_warmup_cycles=2_000,
            frequency_phases=1,
            frequency_phase_scale=0.02,
            fault_trials_per_site=5,
            degradation_failed_cores=(0, 2),
            churn_extra_vms=1,
            # Keep the full 8-machine / 2-rack fleet (a smaller fleet would
            # not exercise rack-scoped storms), but only the storm scenario.
            fleet_machines=8,
            fleet_racks=2,
            fleet_scenarios=("failure-storm",),
            fuzz_cases=3,
            fuzz_profiles=("mixed",),
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExperimentSettings":
        """Rebuild settings from a ``dataclasses.asdict`` payload.

        This is how ``repro diff`` re-runs the evaluation a baseline
        document was produced with: JSON round trips turn the tuple fields
        into lists, so sequences are normalised back to tuples.  Unknown
        keys are ignored (a baseline written by a newer build still drives
        the fields this build knows about).
        """
        if not isinstance(payload, Mapping):
            raise ExperimentError(
                f"settings payload must be an object, not {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        kwargs = {}
        for name, value in payload.items():
            if name not in known:
                continue
            kwargs[name] = tuple(value) if isinstance(value, list) else value
        return cls(**kwargs)

    def with_workloads(self, workloads: Sequence[str]) -> "ExperimentSettings":
        """A copy restricted to the given workloads."""
        return replace(self, workloads=tuple(workloads))

    def with_seeds(self, seeds: Sequence[int]) -> "ExperimentSettings":
        """A copy sweeping the given seeds."""
        return replace(self, seeds=tuple(seeds))

    def cell_settings(self) -> "ExperimentSettings":
        """The settings one experiment *cell* actually depends on.

        A cell simulates exactly one (workload, configuration, seed)
        combination, so the ``workloads`` and ``seeds`` selections of the
        surrounding sweep must not leak into its identity: normalising them
        away keeps job cache keys stable when the sweep is restricted or
        extended (a cached ``apache`` cell is reused whether the sweep ran
        two workloads or six).  ``fault_trials_per_site`` sizes the fault
        sweep, ``degradation_failed_cores`` and ``churn_extra_vms`` size the
        dynamic-scenario sweeps, and the ``fleet_*`` knobs shape the fleet
        sweep -- none of them describes a simulation cell (each cell carries
        its own failure count, burst-VM count, timeline or fuzz scenario in
        its job params), so they are normalised away too.
        """
        return replace(
            self,
            workloads=(),
            seeds=(),
            fault_trials_per_site=0,
            degradation_failed_cores=(),
            churn_extra_vms=0,
            fleet_machines=0,
            fleet_racks=0,
            fleet_scenarios=(),
            fuzz_cases=0,
            fuzz_profiles=(),
        )
