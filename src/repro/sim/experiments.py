"""The building blocks of the paper's experiments, and the batch runner.

Every table and figure of the paper's evaluation (Section 5) is one
registered :class:`~repro.sim.specs.ExperimentSpec`; running a spec returns
a schema-assembled :class:`~repro.sim.frames.ResultFrame` whose views print
the paper-shaped tables:

=======================  ================================================
Paper artefact           Spec (``repro <name>``)
=======================  ================================================
Figure 5(a)/(b)          ``figure5``
Figure 6(a)/(b)          ``figure6``
Section 5.2 (PAB)        ``pab``
Table 1                  ``table1``
Table 2                  ``table2``
Section 5.3 bottom line  ``single-os``
Window/TSO ablation      ``ablation``
Sections 2.1/3.4 faults  ``faults`` (``sweep_rates`` for the fault space)
Everything at once       :func:`run_all_experiments`
=======================  ================================================

This module keeps the domain pieces the specs are built from -- the job
enumerators and the timeline builders -- plus :func:`collect_frames`, the
one batch path (enumerate every named spec's cells into one runner batch,
run it, and fold the shared results into one frame per spec), and
:func:`run_all_experiments`, which wraps its frames in an
:class:`AllExperimentsResult`.

All experiments share :class:`ExperimentSettings` (see
:mod:`repro.sim.settings`), which holds the scaled-down run lengths and the
capacity/footprint scale factor so that the whole evaluation completes on a
laptop while preserving the relative behaviour the paper reports.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.config.system import PabLookupMode
from repro.errors import ExperimentError
from repro.sim.frames import ResultFrame, frames_document
from repro.sim.jobs import (
    ABLATION_VARIANTS,
    FIGURE5_CONFIGS,
    FIGURE6_CONFIGS,
    ExperimentJob,
    burst_vm_name,
)
from repro.sim.runner import ExperimentRunner, default_runner
from repro.sim.settings import ExperimentSettings
from repro.sim.timeline import CoreFailed, Timeline, VmArrived, VmDeparted

__all__ = [
    "ExperimentSettings",
    "FIGURE5_CONFIGS",
    "FIGURE6_CONFIGS",
    "ABLATION_VARIANTS",
    "FAULT_COVERAGE_TITLE",
    "AllExperimentsResult",
    "figure5_jobs",
    "figure6_jobs",
    "pab_jobs",
    "switch_overhead_jobs",
    "switch_frequency_jobs",
    "window_ablation_jobs",
    "degradation_timeline",
    "degradation_jobs",
    "churn_timeline",
    "churn_jobs",
    "collect_frames",
    "run_all_experiments",
    "run_all_spec_names",
]


# ===================================================================== #
# Simulation cells: Figures 5 and 6, the PAB study and the ablation
# ===================================================================== #


def figure5_jobs(settings: ExperimentSettings) -> List[ExperimentJob]:
    """Every (workload, configuration, seed) cell of Figure 5."""
    cell = settings.cell_settings()
    return [
        ExperimentJob(
            kind="figure5", workload=workload, variant=configuration, seed=seed,
            settings=cell,
        )
        for workload in settings.workloads
        for configuration in FIGURE5_CONFIGS
        for seed in settings.seeds
    ]

def figure6_jobs(
    settings: ExperimentSettings,
    configurations: Sequence[str] = FIGURE6_CONFIGS,
) -> List[ExperimentJob]:
    """Every (workload, configuration, seed) cell of Figure 6."""
    cell = settings.cell_settings()
    return [
        ExperimentJob(
            kind="figure6", workload=workload, variant=configuration, seed=seed,
            settings=cell,
        )
        for workload in settings.workloads
        for configuration in configurations
        for seed in settings.seeds
    ]

def pab_jobs(settings: ExperimentSettings) -> List[ExperimentJob]:
    """Every (workload, lookup-mode, seed) cell of the PAB latency study."""
    cell = settings.cell_settings()
    return [
        ExperimentJob(
            kind="pab", workload=workload, variant=mode.value, seed=seed, settings=cell,
        )
        for workload in settings.workloads
        for mode in (PabLookupMode.PARALLEL, PabLookupMode.SERIAL)
        for seed in settings.seeds
    ]

def window_ablation_jobs(settings: ExperimentSettings) -> List[ExperimentJob]:
    """One ablation cell per (workload, variant)."""
    cell = settings.cell_settings()
    seed = settings.seeds[0]
    return [
        ExperimentJob(
            kind="ablation", workload=workload, variant=variant, seed=seed,
            settings=cell,
        )
        for workload in settings.workloads
        for variant in ABLATION_VARIANTS
    ]

# ===================================================================== #
# Measurement cells: Tables 1 and 2
# ===================================================================== #


def switch_overhead_jobs(settings: ExperimentSettings) -> List[ExperimentJob]:
    """One Table 1 cell per workload, on the first seed (the cell measures
    ``switch_transitions`` round trips after ``switch_warmup_cycles``)."""
    cell = settings.cell_settings()
    return [
        ExperimentJob(kind="table1", workload=workload, seed=settings.seeds[0], settings=cell)
        for workload in settings.workloads
    ]

def switch_frequency_jobs(settings: ExperimentSettings) -> List[ExperimentJob]:
    """One Table 2 cell per workload, on the first seed (the cell times
    ``frequency_phases`` user/OS phase pairs at ``frequency_phase_scale``)."""
    cell = settings.cell_settings()
    return [
        ExperimentJob(kind="table2", workload=workload, seed=settings.seeds[0], settings=cell)
        for workload in settings.workloads
    ]

# ===================================================================== #
# Dynamic scenarios: graceful degradation and consolidation churn
# ===================================================================== #


def degradation_timeline(settings: ExperimentSettings, failed_cores: int) -> Timeline:
    """The failure schedule of one degradation cell.

    ``failed_cores`` permanent faults strike at evenly spaced cycles across
    the measurement window, retiring the highest-numbered cores first, so a
    single run sweeps from full capacity down to its final surviving-core
    count -- every event fires mid-run.
    """
    num_cores = settings.config().num_cores
    if failed_cores >= num_cores:
        raise ExperimentError(
            f"cannot fail {failed_cores} of {num_cores} cores "
            "(at least one core must survive)"
        )
    start, window = settings.warmup_cycles, settings.total_cycles
    return Timeline.of(
        *(
            CoreFailed(
                cycle=start + (index + 1) * window // (failed_cores + 1),
                core_id=num_cores - 1 - index,
            )
            for index in range(failed_cores)
        )
    )

def degradation_jobs(
    settings: ExperimentSettings, failures: Sequence[int]
) -> List[ExperimentJob]:
    """Every (workload, failed-core count, seed) degradation cell."""
    cell = settings.cell_settings()
    jobs: List[ExperimentJob] = []
    for workload in settings.workloads:
        for failed in failures:
            params: tuple = (("failed_cores", int(failed)),)
            if failed:
                timeline = degradation_timeline(settings, int(failed))
                params += (("timeline", timeline.to_json()),)
            for seed in settings.seeds:
                jobs.append(
                    ExperimentJob(
                        kind="degradation",
                        workload=workload,
                        variant=f"fail{int(failed)}",
                        seed=seed,
                        settings=cell,
                        params=params,
                    )
                )
    return jobs

def churn_timeline(settings: ExperimentSettings, extra_vms: int) -> Timeline:
    """The arrival/departure schedule of one consolidation-churn cell.

    Burst VM ``i`` arrives at the ``(i+1)``-th and departs at the
    ``(i+3)``-th of ``extra_vms + 3`` evenly spaced points across the
    measurement window: each burst stays for two intervals, so consecutive
    bursts genuinely overlap by one interval and the machine passes through
    distinct consolidation levels (0, 1 and 2 concurrent bursts).
    """
    start, window = settings.warmup_cycles, settings.total_cycles
    points = extra_vms + 3
    events = []
    for index in range(extra_vms):
        events.append(
            VmArrived(
                cycle=start + (index + 1) * window // points,
                vm_name=burst_vm_name(index),
            )
        )
        events.append(
            VmDeparted(
                cycle=start + (index + 3) * window // points,
                vm_name=burst_vm_name(index),
            )
        )
    return Timeline.of(*events)

def churn_jobs(settings: ExperimentSettings, extra_vms: int) -> List[ExperimentJob]:
    """Every (workload, seed) consolidation-churn cell."""
    cell = settings.cell_settings()
    timeline = churn_timeline(settings, extra_vms)
    params = (
        ("extra_vms", int(extra_vms)),
        ("timeline", timeline.to_json()),
    )
    return [
        ExperimentJob(
            kind="churn",
            workload=workload,
            variant=f"vms{int(extra_vms)}",
            seed=seed,
            settings=cell,
            params=params,
        )
        for workload in settings.workloads
        for seed in settings.seeds
    ]


# ===================================================================== #
# Sections 2.1 / 3.4: fault-injection coverage
# ===================================================================== #

#: Title of the coverage comparison (the ``faults`` spec's frame view).
FAULT_COVERAGE_TITLE = (
    "Fault-injection coverage "
    "(fraction of faults from which reliable state was protected)"
)


# ===================================================================== #
# Everything at once
# ===================================================================== #


@dataclass
class AllExperimentsResult:
    """Every experiment's result frame, produced from one job batch."""

    settings: ExperimentSettings
    #: One schema-assembled frame per registered spec, in registry
    #: (= presentation) order.
    frames: Dict[str, ResultFrame] = field(default_factory=dict)

    def frame(self, name: str) -> ResultFrame:
        """One spec's frame (raising when it was skipped)."""
        try:
            return self.frames[name]
        except KeyError:
            raise ExperimentError(
                f"experiment {name!r} was not part of this run"
            ) from None

    def render(self) -> str:
        """The full plain-text report: every frame's tables, in registry order."""
        return "\n\n".join(frame.to_table() for frame in self.frames.values())

    def to_document(self) -> Dict[str, object]:
        """The canonical JSON document of this run (``run-all --json``).

        Embeds the settings so ``repro diff`` can re-run the exact same
        evaluation against the document as a baseline.
        """
        return frames_document(self.frames, settings=asdict(self.settings))


def run_all_spec_names(skipped_groups: Iterable[str] = ()) -> List[str]:
    """The specs ``run-all`` covers: every registered spec, in registry
    order, except those whose ``run_all_group`` is in ``skipped_groups``
    (``switching``, ``ablation``, ``faults``)."""
    from repro.sim.specs import EXPERIMENTS

    skipped = set(skipped_groups)
    return [
        name for name, spec in EXPERIMENTS.items() if spec.run_all_group not in skipped
    ]


def collect_frames(
    settings: Optional[ExperimentSettings] = None,
    names: Optional[Sequence[str]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[str, ResultFrame]:
    """Run the named specs as one batch and return their frames.

    ``names`` defaults to every registered spec.  Every named spec's cells
    are enumerated into a single runner batch (overlapping across
    experiments under a parallel runner), and each spec's frame is
    assembled from the shared results.  This is the one batch path behind
    ``run-all``, ``repro export`` and ``repro diff``, so the latter two
    enumerate exactly as the ``run-all --json`` baselines they compare
    against.
    """
    from repro.sim.specs import experiment

    settings = settings or ExperimentSettings()
    runner = runner or default_runner()
    if names is None:
        names = run_all_spec_names()
    with runner.stats.phase("enumerate"):
        requests = {}
        jobs_by_spec: Dict[str, List[ExperimentJob]] = {}
        batch: List[ExperimentJob] = []
        for name in names:
            spec = experiment(name)
            # No per-spec options: every knob a batch varies is a settings
            # field, so the settings alone size every spec.
            requests[name] = spec.request(settings)
            jobs_by_spec[name] = spec.enumerate_jobs(requests[name])
            batch += jobs_by_spec[name]
    results = runner.run_jobs(batch)
    with runner.stats.phase("assemble"):
        return {
            name: experiment(name).assemble_frame(request, jobs_by_spec[name], results)
            for name, request in requests.items()
        }


def run_all_experiments(
    settings: Optional[ExperimentSettings] = None,
    runner: Optional[ExperimentRunner] = None,
    names: Optional[Sequence[str]] = None,
) -> AllExperimentsResult:
    """Run the whole evaluation -- every registered spec -- as one job batch.

    ``names`` defaults to :func:`run_all_spec_names` (every spec of the
    ``EXPERIMENTS`` registry of :mod:`repro.sim.specs`).  The batch is
    :func:`collect_frames`'s, so a multi-worker runner overlaps cells
    *across* experiments (not just within one) and a warm cache re-run
    executes nothing at all.  Each spec's results land as one
    :class:`ResultFrame`.
    """
    settings = settings or ExperimentSettings()
    return AllExperimentsResult(
        settings=settings, frames=collect_frames(settings, names, runner)
    )
