"""Declarative experiment specs and the central ``EXPERIMENTS`` registry.

Every evaluation of the reproduction -- each paper figure/table and the
fault-injection campaigns -- is described by one :class:`ExperimentSpec`: a
plain-value object naming the experiment, how a request's cells are
enumerated as :class:`~repro.sim.jobs.ExperimentJob` values, and a
:class:`~repro.sim.frames.MetricSchema` declaring its key axes and metric
columns.  Running a spec returns a typed
:class:`~repro.sim.frames.ResultFrame`; the generic assembler of
:mod:`repro.sim.frames` folds the runner's ``{job: metrics}`` output into
the frame, aggregating over seeds in one place, and ``to_table`` /
``to_json`` / ``to_csv`` are *generated* from the schema.

A request is an :class:`ExperimentSettings` value plus the few options a
spec reads that have no settings field (``sweep_rates``,
``all_configurations``, ``planted``).  Every other knob -- trials per
fault site, failed-core counts, the fleet's shape, the fuzz campaign's
size -- is a settings field, so ``run-all``, ``export`` and ``diff``, which
pass settings alone, reach all of them.

Specs are registered in the module-level :data:`EXPERIMENTS` registry, which
is the single source of truth the rest of the system iterates:

* :meth:`ExperimentSpec.run` returns the spec's frame, and
  :meth:`ExperimentSpec.execute` keeps the raw ``{job: metrics}`` results
  alongside it;
* ``run_all_experiments`` enumerates every registered spec's cells into one
  job batch and returns one frame per spec;
* the CLI generates one subcommand per spec -- flags and help text come
  from the spec's metadata (:class:`SpecOption`), so a new experiment
  shows up in ``repro <name>``, ``repro list``, ``repro export`` and
  ``repro diff`` without touching :mod:`repro.cli`.

Adding a new scenario is therefore a ~30-line spec: an enumerator mapping
a request to jobs (reusing a registered job kind, or registering a new one
via :func:`repro.sim.jobs.register_job_kind`), a :class:`MetricSchema`, and
a call to :func:`register_experiment`.  See ``examples/custom_experiment.py``
for a worked example.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ExperimentError
from repro.faults.campaign import DEFAULT_CONFIGURATIONS, SWEEP_CONFIGURATIONS
from repro.faults.cells import assemble_campaign_reports, fault_campaign_jobs
from repro.sim.experiments import (
    FAULT_COVERAGE_TITLE,
    ExperimentSettings,
    churn_jobs,
    degradation_jobs,
    figure5_jobs,
    figure6_jobs,
    pab_jobs,
    switch_frequency_jobs,
    switch_overhead_jobs,
    window_ablation_jobs,
)
from repro.sim.fleet.cells import fleet_jobs, fleet_samples, fleet_topology
from repro.sim.fleet.traffic import SCENARIO_NAMES
from repro.sim.frames import FrameView, MetricColumn, MetricSchema, ResultFrame
from repro.sim.jobs import ExperimentJob
from repro.sim.runner import ExperimentRunner, Metrics, default_runner

__all__ = [
    "EXPERIMENTS",
    "SETTINGS_FIELDS",
    "ExperimentSpec",
    "SpecOption",
    "SpecRequest",
    "SpecRun",
    "experiment",
    "job_axis_value",
    "register_experiment",
    "parse_count_list",
    "parse_nonnegative_int",
    "parse_positive_int",
    "parse_rate_list",
    "parse_seed_list",
]

JobResults = Mapping[ExperimentJob, Metrics]

#: One raw frame sample: a key tuple (schema key order) plus a mapping of
#: metric samples contributed at that coordinate.
FrameSample = Tuple[Tuple[object, ...], Mapping[str, object]]


# ===================================================================== #
# Option metadata (drives the auto-generated CLI flags)
# ===================================================================== #


def parse_positive_int(value: str) -> int:
    """Argparse type for counts that must be at least 1."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return number


def parse_nonnegative_int(value: str) -> int:
    """Argparse type for counts where 0 is meaningful (e.g. no-churn)."""
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return number


def parse_seed_list(value: str) -> Tuple[int, ...]:
    """``--seeds`` accepts a comma list ('0,1,2') or a count N (seeds 0..N-1)."""
    try:
        if "," in value:
            # dict.fromkeys: drop duplicate seeds while keeping their order
            # (a duplicated seed would double-count its cells in a sweep).
            seeds = tuple(
                dict.fromkeys(int(part) for part in value.split(",") if part.strip())
            )
        else:
            seeds = tuple(range(int(value)))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated seed list like '0,1,2' or a count like '5'"
        ) from None
    if not seeds:
        raise argparse.ArgumentTypeError("needs at least one seed")
    return seeds


def parse_count_list(value: str) -> Tuple[int, ...]:
    """A comma list of non-negative integers (e.g. ``--failures 0,2,4``)."""
    try:
        counts = tuple(
            dict.fromkeys(int(part) for part in value.split(",") if part.strip())
        )
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of counts like '0,2,4'"
        ) from None
    if not counts or any(count < 0 for count in counts):
        raise argparse.ArgumentTypeError("counts must be non-negative integers")
    return counts


def parse_rate_list(value: str) -> Tuple[float, ...]:
    """``--sweep-rates`` accepts a comma list of fault-rate scales in (0, 1]."""
    try:
        rates = tuple(float(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of rates like '0.25,0.5,1.0'"
        ) from None
    # `not (0 < rate <= 1)` rather than `rate <= 0 or rate > 1`: the former
    # also rejects NaN, for which every comparison is False.
    if not rates or any(not (0.0 < rate <= 1.0) for rate in rates):
        raise argparse.ArgumentTypeError("rates must lie in (0, 1]")
    return rates


#: The :class:`ExperimentSettings` field names.  A :class:`SpecOption` named
#: after one sets that field, so the spec reads the value off the settings
#: like every caller that passes settings alone.
SETTINGS_FIELDS = frozenset(
    settings_field.name for settings_field in dataclasses.fields(ExperimentSettings)
)

#: Keywords that requests once took as options, each with the settings
#: field that now holds the value (named when a caller still passes one).
_SETTINGS_FIELD_OF = {
    "trials": "fault_trials_per_site",
    "failures": "degradation_failed_cores",
    "extra_vms": "churn_extra_vms",
    "scenarios": "fleet_scenarios",
    "machines": "fleet_machines",
    "racks": "fleet_racks",
    "cases": "fuzz_cases",
    "profile": "fuzz_profiles",
    "transitions_to_measure": "switch_transitions",
    "warmup_cycles": "switch_warmup_cycles",
    "phases_to_measure": "frequency_phases",
    "measurement_phase_scale": "frequency_phase_scale",
}


def _refusal(spec: str, name: str, takes: Sequence[str]) -> str:
    """Why ``spec`` refuses the request option ``name``, with the settings
    field (or fields) to set instead when there is one."""
    message = (
        f"{spec} takes no option {name!r} (its options: {', '.join(takes) or 'none'})"
    )
    settings_fields = [
        candidate
        for candidate in (_SETTINGS_FIELD_OF.get(name), name)
        if candidate in SETTINGS_FIELDS
    ]
    if settings_fields:
        message += f"; set ExperimentSettings.{' or '.join(settings_fields)} instead"
    return message


@dataclass(frozen=True)
class SpecOption:
    """One experiment-specific CLI flag, declared as spec metadata.

    The CLI materialises every option as an ``argparse`` argument.  When
    ``name`` is an :class:`ExperimentSettings` field the parsed value sets
    that field; otherwise it reaches the spec through
    :attr:`SpecRequest.options`.
    """

    #: Settings field or request option name; the ``argparse`` destination.
    name: str
    #: Command-line flag (dashed), e.g. ``--sweep-rates``.
    flag: str
    help: str = ""
    #: Parser for the flag's string value; ignored for boolean flags.
    parse: Optional[Callable[[str], object]] = None
    metavar: Optional[str] = None
    #: ``True`` for a ``store_true`` switch.
    is_flag: bool = False


# ===================================================================== #
# Requests and specs
# ===================================================================== #


@dataclass(frozen=True)
class SpecRequest:
    """One resolved ask of a spec: settings plus experiment-specific options.

    Built by :meth:`ExperimentSpec.request` (which applies the spec's
    workload limit and single-seed policy), and passed verbatim to the
    spec's ``enumerate_jobs`` / ``schema`` hooks.
    """

    settings: ExperimentSettings
    options: Mapping[str, object] = field(default_factory=dict)

    def option(self, name: str, default: object = None) -> object:
        """Read one option, falling back to ``default`` when unset/None."""
        value = self.options.get(name)
        return default if value is None else value


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative, re-runnable description of one experiment.

    The hooks receive a resolved :class:`SpecRequest`; everything else --
    running through a :class:`~repro.sim.runner.ExperimentRunner`, generic
    frame assembly, schema-generated table / JSON / CSV rendering -- is
    provided by the spec machinery.
    """

    #: Registry key, CLI subcommand and JSON ``experiment`` field.
    name: str
    #: One-line summary (the CLI subcommand's help text).
    title: str
    #: Spec family (``simulation``, ``measurement``, ``faults``) -- how the
    #: cells execute, used for grouping in ``repro list`` and the tests.
    family: str = "simulation"
    #: The request's cells as picklable engine jobs.
    enumerate_jobs: Callable[[SpecRequest], List[ExperimentJob]] = (
        lambda request: []
    )
    #: The declared result shape: key axes plus typed metric columns.
    #: Running the spec returns a :class:`ResultFrame` assembled by the
    #: generic fold of :mod:`repro.sim.frames`.  Required.
    schema: Callable[[SpecRequest], MetricSchema] = field(kw_only=True)
    #: Optional override of the raw samples fed to the frame assembler;
    #: the default maps each job's key coordinates straight off the job and
    #: feeds its whole metrics dict.  Needed when samples must be computed
    #: *across* cells first (the fault campaign derives per-seed coverage
    #: from many trial-chunk cells).
    cell_samples: Optional[
        Callable[[SpecRequest, Sequence[ExperimentJob], JobResults], Iterable[FrameSample]]
    ] = None
    #: Experiment-specific CLI flags.
    options: Tuple[SpecOption, ...] = ()
    #: ``False`` for single-seed measurements: the request keeps only the
    #: first seed, and the CLI announces dropped seeds instead of silently
    #: ignoring them.
    multi_seed: bool = True
    #: When set, a request that did not explicitly choose workloads is
    #: limited to the first N (the ablation runs two by default).
    workload_limit: Optional[int] = None
    #: Whether the experiment sweeps the paper workloads at all (the fault
    #: campaigns sweep fault sites instead; the CLI then offers no
    #: ``--workloads``/``--quick`` flags).
    takes_workloads: bool = True
    #: ``run_all_experiments`` skip group (``switching``, ``ablation``,
    #: ``faults``) or ``None`` for the always-on core experiments.
    run_all_group: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Request resolution and execution
    # ------------------------------------------------------------------ #

    def request(
        self,
        settings: Optional[ExperimentSettings] = None,
        *,
        explicit_workloads: bool = False,
        **options: object,
    ) -> SpecRequest:
        """Resolve settings + options into the request the hooks consume.

        ``options`` may name only the spec's own request options (its
        :class:`SpecOption` names that are not settings fields); any other
        keyword raises :class:`~repro.errors.ExperimentError`, naming the
        settings field that holds the value when there is one.
        """
        takes = [
            option.name for option in self.options if option.name not in SETTINGS_FIELDS
        ]
        for name in options:
            if name not in takes:
                raise ExperimentError(_refusal(self.name, name, takes))
        settings = settings or ExperimentSettings()
        if (
            self.workload_limit is not None
            and not explicit_workloads
            and len(settings.workloads) > self.workload_limit
        ):
            settings = settings.with_workloads(
                settings.workloads[: self.workload_limit]
            )
        if not self.multi_seed and len(settings.seeds) > 1:
            settings = settings.with_seeds(settings.seeds[:1])
        return SpecRequest(settings=settings, options=options)

    def execute(
        self,
        settings: Optional[ExperimentSettings] = None,
        runner: Optional[ExperimentRunner] = None,
        request: Optional[SpecRequest] = None,
        **options: object,
    ) -> "SpecRun":
        """Enumerate and execute this experiment, keeping the raw results.

        Either pass a pre-resolved ``request`` or let ``settings`` and
        keyword options be resolved via :meth:`request`.  The returned
        :class:`SpecRun` exposes the raw ``{job: metrics}`` mapping as well
        as the assembled :meth:`~SpecRun.frame`, for callers that need the
        cells themselves (e.g. the fault campaign's outcome counts via
        :func:`repro.faults.cells.assemble_campaign_reports`).
        """
        if request is None:
            request = self.request(settings, **options)
        runner = runner or default_runner()
        with runner.stats.phase("enumerate"):
            jobs = self.enumerate_jobs(request)
        results = runner.run_jobs(jobs)
        return SpecRun(
            spec=self, request=request, jobs=jobs, results=results, runner=runner
        )

    def run(
        self,
        settings: Optional[ExperimentSettings] = None,
        runner: Optional[ExperimentRunner] = None,
        request: Optional[SpecRequest] = None,
        **options: object,
    ) -> ResultFrame:
        """Run this experiment and return its assembled :class:`ResultFrame`."""
        return self.execute(settings, runner=runner, request=request, **options).frame()

    # ------------------------------------------------------------------ #
    # Frame assembly (generic, schema-driven)
    # ------------------------------------------------------------------ #

    def metric_schema(self, request: SpecRequest) -> MetricSchema:
        """The resolved schema of one request."""
        return self.schema(request)

    def samples(
        self,
        request: SpecRequest,
        jobs: Sequence[ExperimentJob],
        results: JobResults,
    ) -> Iterable[FrameSample]:
        """The raw ``(key, values)`` samples fed to the frame assembler."""
        if self.cell_samples is not None:
            return self.cell_samples(request, jobs, results)
        schema = self.metric_schema(request)
        return (
            (
                tuple(job_axis_value(job, axis) for axis in schema.keys),
                results[job],
            )
            for job in jobs
        )

    def assemble_frame(
        self,
        request: SpecRequest,
        jobs: Sequence[ExperimentJob],
        results: JobResults,
    ) -> ResultFrame:
        """Fold the runner's output into this spec's :class:`ResultFrame`."""
        return ResultFrame.assemble(
            self.metric_schema(request),
            self.samples(request, jobs, results),
            name=self.name,
            title=self.title,
        )

    # ------------------------------------------------------------------ #
    # Uniform result rendering (generated from the schema)
    # ------------------------------------------------------------------ #

    def to_json(self, frame: ResultFrame) -> Dict[str, object]:
        """A JSON-safe record of a result frame (uniform across specs)."""
        return {
            "experiment": self.name,
            "title": self.title,
            "family": self.family,
            "result": frame.to_json(),
        }


@dataclass
class SpecRun:
    """One executed spec request: the raw results plus the assembled frame."""

    spec: ExperimentSpec
    request: SpecRequest
    jobs: List[ExperimentJob]
    results: JobResults
    #: The runner that executed the request; set so lazy frame assembly can
    #: charge its time to the runner's ``assemble`` phase.
    runner: Optional[ExperimentRunner] = None
    _frame: Optional[ResultFrame] = None

    def frame(self) -> ResultFrame:
        """The schema-assembled frame (computed once per run)."""
        if self._frame is None:
            if self.runner is not None:
                with self.runner.stats.phase("assemble"):
                    self._frame = self.spec.assemble_frame(
                        self.request, self.jobs, self.results
                    )
            else:
                self._frame = self.spec.assemble_frame(
                    self.request, self.jobs, self.results
                )
        return self._frame


def job_axis_value(job: ExperimentJob, axis: str) -> object:
    """Default mapping from a schema key axis to a job's coordinate.

    ``workload`` and ``seed`` are job fields; any other axis is looked up
    in the job's ``params`` payload and falls back to the ``variant``
    label (the configuration axis of the simulation families).
    """
    if axis == "workload":
        return job.workload
    if axis == "seed":
        return job.seed
    value = job.param(axis)
    if value is not None:
        return value
    return job.variant


# ===================================================================== #
# The registry
# ===================================================================== #

#: Every registered experiment spec, in registration (= presentation) order.
EXPERIMENTS: Dict[str, ExperimentSpec] = {}


def register_experiment(spec: ExperimentSpec, *, replace: bool = False) -> ExperimentSpec:
    """Add a spec to :data:`EXPERIMENTS` (rejecting silent name collisions)."""
    if spec.name in EXPERIMENTS and not replace:
        raise ExperimentError(f"experiment {spec.name!r} is already registered")
    EXPERIMENTS[spec.name] = spec
    return spec


def experiment(name: str) -> ExperimentSpec:
    """Look up one registered spec by name."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(EXPERIMENTS) or "none"
        raise ExperimentError(
            f"unknown experiment {name!r} (registered: {known})"
        ) from None


# ===================================================================== #
# The reproduction's specs
# ===================================================================== #


def _ipc_metric(name: str, label: str = "") -> MetricColumn:
    return MetricColumn(name, unit="instr/cycle", label=label)


_FIGURE5_SCHEMA = MetricSchema(
    keys=("workload", "configuration"),
    metrics=(
        _ipc_metric("user_ipc", "user IPC"),
        _ipc_metric("throughput"),
    ),
    views=(
        FrameView(
            title="Figure 5(a): per-thread user IPC (normalised to No DMR 2X)",
            metrics=("user_ipc",),
            pivot="configuration",
            normalize_to="no-dmr-2x",
        ),
        FrameView(
            title="Figure 5(b): overall throughput (normalised to No DMR 2X)",
            metrics=("throughput",),
            pivot="configuration",
            normalize_to="no-dmr-2x",
        ),
    ),
)


register_experiment(
    ExperimentSpec(
        name="figure5",
        title="Figure 5: DMR overhead (IPC and throughput)",
        enumerate_jobs=lambda request: figure5_jobs(request.settings),
        schema=lambda request: _FIGURE5_SCHEMA,
    )
)


_FIGURE6_SCHEMA = MetricSchema(
    keys=("workload", "configuration"),
    metrics=(
        _ipc_metric("reliable_ipc", "reliable"),
        _ipc_metric("performance_ipc", "performance"),
        _ipc_metric("reliable_throughput"),
        _ipc_metric("performance_throughput"),
        _ipc_metric("overall_throughput"),
    ),
    views=(
        FrameView(
            title="Figure 6(a): per-thread user IPC (normalised to DMR Base)",
            metrics=("reliable_ipc", "performance_ipc"),
            series_labels=("reliable", "performance"),
            series_column="vm",
            pivot="configuration",
            normalize_to="dmr-base",
        ),
        FrameView(
            title="Figure 6(b): throughput (normalised to DMR Base)",
            metrics=("performance_throughput", "overall_throughput"),
            series_labels=("performance-vm", "overall"),
            series_column="series",
            pivot="configuration",
            normalize_to="dmr-base",
        ),
    ),
)


register_experiment(
    ExperimentSpec(
        name="figure6",
        title="Figure 6: mixed-mode performance",
        enumerate_jobs=lambda request: figure6_jobs(request.settings),
        schema=lambda request: _FIGURE6_SCHEMA,
    )
)


_PAB_SCHEMA = MetricSchema(
    keys=("workload", "lookup"),
    metrics=(
        MetricColumn("performance_ipc", unit="instr/cycle", aggregate="mean"),
        MetricColumn("reliable_ipc", unit="instr/cycle", aggregate="mean"),
    ),
    views=(
        FrameView(
            title="Effect of a 2-cycle serial PAB lookup (MMM-TP, performance VM)",
            metrics=("performance_ipc", "reliable_ipc"),
            series_labels=("performance", "reliable"),
            series_column="vm",
            pivot="lookup",
        ),
    ),
)


register_experiment(
    ExperimentSpec(
        name="pab",
        title="Section 5.2: serial vs parallel PAB lookup",
        enumerate_jobs=lambda request: pab_jobs(request.settings),
        schema=lambda request: _PAB_SCHEMA,
    )
)


_TABLE1_SCHEMA = MetricSchema(
    keys=("workload",),
    metrics=(
        MetricColumn(
            "enter_dmr_cycles", unit="cycles", aggregate="last",
            label="Enter DMR", fmt="{:.0f}",
        ),
        MetricColumn(
            "leave_dmr_cycles", unit="cycles", aggregate="last",
            label="Leave DMR", fmt="{:.0f}",
        ),
    ),
    views=(
        FrameView(
            title="Table 1: mixed-mode switching overheads (cycles, MMM-TP)",
            metrics=("enter_dmr_cycles", "leave_dmr_cycles"),
        ),
    ),
)


register_experiment(
    ExperimentSpec(
        name="table1",
        title="Table 1: mode-switch overheads",
        family="measurement",
        enumerate_jobs=lambda request: switch_overhead_jobs(request.settings),
        schema=lambda request: _TABLE1_SCHEMA,
        multi_seed=False,
        run_all_group="switching",
    )
)


_TABLE2_SCHEMA = MetricSchema(
    keys=("workload",),
    metrics=(
        MetricColumn(
            "user_cycles", unit="cycles", aggregate="last",
            label="User Cycles", fmt="{:.0f}",
        ),
        MetricColumn(
            "os_cycles", unit="cycles", aggregate="last",
            label="OS Cycles", fmt="{:.0f}",
        ),
    ),
    views=(
        FrameView(
            title="Table 2: cycles before switching modes (single-OS, non-DMR baseline)",
            metrics=("user_cycles", "os_cycles"),
        ),
    ),
)


register_experiment(
    ExperimentSpec(
        name="table2",
        title="Table 2: cycles between mode switches",
        family="measurement",
        enumerate_jobs=lambda request: switch_frequency_jobs(request.settings),
        schema=lambda request: _TABLE2_SCHEMA,
        multi_seed=False,
        run_all_group="switching",
    )
)


def _single_os_jobs(request: SpecRequest) -> List[ExperimentJob]:
    return switch_overhead_jobs(request.settings) + switch_frequency_jobs(request.settings)


def _single_os_samples(
    request: SpecRequest, jobs: Sequence[ExperimentJob], results: JobResults
) -> Iterator[FrameSample]:
    """Merge Table 1 and Table 2 cells into one row per workload.

    Each measurement kind contributes a *partial* sample; the assembler
    merges them by key and the ``overhead_percent`` column derives from the
    merged row."""
    for job in jobs:
        metrics = results[job]
        if job.kind == "table1":
            yield (job.workload,), {
                "switch_cycles": metrics["enter_dmr_cycles"] + metrics["leave_dmr_cycles"]
            }
        else:
            yield (job.workload,), {
                "round_trip_cycles": metrics["user_cycles"] + metrics["os_cycles"]
            }


def _single_os_overhead(row: Mapping[str, object]) -> float:
    switch = float(row.get("switch_cycles") or 0.0)
    total = float(row.get("round_trip_cycles") or 0.0) + switch
    return switch / total * 100.0 if total else 0.0


_SINGLE_OS_SCHEMA = MetricSchema(
    keys=("workload",),
    metrics=(
        MetricColumn(
            "switch_cycles", unit="cycles", aggregate="last",
            label="switch cycles", fmt="{:.0f}",
        ),
        MetricColumn(
            "round_trip_cycles", unit="cycles", aggregate="last",
            label="user+OS cycles", fmt="{:.0f}",
        ),
        MetricColumn(
            "overhead_percent", unit="%", aggregate="derive",
            label="overhead %", derive=_single_os_overhead,
        ),
    ),
    views=(
        FrameView(
            title="Single-OS mode-switching overhead (Table 1 + Table 2 combined)",
            metrics=("switch_cycles", "round_trip_cycles", "overhead_percent"),
        ),
    ),
)


register_experiment(
    ExperimentSpec(
        name="single-os",
        title="Section 5.3: single-OS switching overhead",
        family="measurement",
        enumerate_jobs=_single_os_jobs,
        schema=lambda request: _SINGLE_OS_SCHEMA,
        cell_samples=_single_os_samples,
        multi_seed=False,
        run_all_group="switching",
    )
)


_ABLATION_SCHEMA = MetricSchema(
    keys=("workload", "variant"),
    # Single-seed measurement: the cell's raw IPC, not a degenerate CI.
    metrics=(
        MetricColumn(
            "user_ipc", unit="instr/cycle", aggregate="last", label="user IPC"
        ),
    ),
    views=(
        FrameView(
            title="Reunion per-thread IPC vs window size / consistency (normalised)",
            metrics=("user_ipc",),
            pivot="variant",
            normalize_to="window128-sc",
        ),
    ),
)


register_experiment(
    ExperimentSpec(
        name="ablation",
        title="window-size / consistency ablation",
        enumerate_jobs=lambda request: window_ablation_jobs(request.settings),
        schema=lambda request: _ABLATION_SCHEMA,
        multi_seed=False,
        workload_limit=2,
        run_all_group="ablation",
    )
)


def _degradation_schema(request: SpecRequest) -> MetricSchema:
    num_cores = request.settings.config().num_cores
    return MetricSchema(
        keys=("workload", "failed_cores"),
        metrics=(
            _ipc_metric("throughput"),
            _ipc_metric("user_ipc", "user IPC"),
            MetricColumn("paused_vcpu_quanta", aggregate="mean", label="paused quanta"),
            MetricColumn("events_applied", aggregate="mean", label="events"),
        ),
        views=(
            FrameView(
                title=(
                    "Graceful degradation: overall throughput vs surviving cores "
                    "(cores fail mid-run; Reunion DMR machine)"
                ),
                metrics=("throughput",),
                pivot="failed_cores",
                pivot_header=lambda failed: f"{num_cores - int(failed)} cores",
            ),
        ),
    )


register_experiment(
    ExperimentSpec(
        name="degradation",
        title="graceful degradation: throughput vs surviving cores (timeline-driven)",
        enumerate_jobs=lambda request: degradation_jobs(
            request.settings, request.settings.degradation_failed_cores
        ),
        schema=_degradation_schema,
        options=(
            SpecOption(
                name="degradation_failed_cores",
                flag="--failures",
                parse=parse_count_list,
                metavar="N1,N2,...",
                help=(
                    "failed-core counts to sweep, e.g. '0,2,4,6' "
                    "(default: the settings' sweep)"
                ),
            ),
        ),
        workload_limit=2,
    )
)


def _churn_schema(request: SpecRequest) -> MetricSchema:
    extra_vms = request.settings.churn_extra_vms
    return MetricSchema(
        keys=("workload",),
        metrics=(
            _ipc_metric("overall_throughput", "throughput"),
            MetricColumn("utilization", label="core utilization"),
            MetricColumn(
                "transition_cycles", unit="cycles",
                label="transition cycles", fmt="{:.0f}",
            ),
            MetricColumn(
                "events_applied", aggregate="mean", label="events", fmt="{:.0f}",
            ),
        ),
        views=(
            FrameView(
                title=(
                    f"Consolidation churn: {extra_vms} burst VM(s) "
                    "arriving/departing mid-run (MMM-TP)"
                ),
                metrics=(
                    "overall_throughput",
                    "utilization",
                    "transition_cycles",
                    "events_applied",
                ),
            ),
        ),
    )


register_experiment(
    ExperimentSpec(
        name="consolidation-churn",
        title="consolidation churn: VMs arriving/departing mid-run (timeline-driven)",
        enumerate_jobs=lambda request: churn_jobs(
            request.settings, request.settings.churn_extra_vms
        ),
        schema=_churn_schema,
        options=(
            SpecOption(
                name="churn_extra_vms",
                flag="--extra-vms",
                parse=parse_nonnegative_int,
                metavar="N",
                help=(
                    "number of burst VMs arriving/departing mid-run; 0 is "
                    "the no-churn baseline (default: the settings' churn level)"
                ),
            ),
        ),
        workload_limit=2,
    )
)


def _faults_rates(request: SpecRequest) -> Tuple[float, ...]:
    return tuple(request.option("sweep_rates") or (1.0,))


def _faults_jobs(request: SpecRequest) -> List[ExperimentJob]:
    configurations = (
        SWEEP_CONFIGURATIONS
        if request.option("all_configurations")
        else DEFAULT_CONFIGURATIONS
    )
    jobs: List[ExperimentJob] = []
    for rate in _faults_rates(request):
        jobs += fault_campaign_jobs(
            trials_per_site=request.settings.fault_trials_per_site,
            configurations=configurations,
            seeds=request.settings.seeds,
            fault_rate=rate,
        )
    return jobs


def _faults_sweeping(request: SpecRequest) -> bool:
    return bool(request.option("sweep_rates"))


def _faults_schema(request: SpecRequest) -> MetricSchema:
    sweeping = _faults_sweeping(request)
    keys = ("rate", "configuration") if sweeping else ("configuration",)
    if sweeping:
        views = (
            FrameView(
                title=(
                    "Fault-space sweep: silent corruption rate vs fault-rate scale "
                    f"({request.settings.fault_trials_per_site} trials/site, "
                    f"{len(tuple(request.settings.seeds))} seeds)"
                ),
                metrics=("silent_corruption_rate",),
                pivot="rate",
                pivot_header="rate {:g}",
            ),
        )
    else:
        views = (
            FrameView(
                title=FAULT_COVERAGE_TITLE,
                metrics=("trials", "coverage", "silent_corruption_rate"),
            ),
        )
    return MetricSchema(
        keys=keys,
        metrics=(
            MetricColumn("trials", dtype="int", aggregate="sum"),
            MetricColumn("coverage"),
            MetricColumn("silent_corruption_rate", label="silent corruption rate"),
        ),
        views=views,
    )


def _faults_samples(
    request: SpecRequest, jobs: Sequence[ExperimentJob], results: JobResults
) -> Iterator[FrameSample]:
    """Per-seed coverage samples, derived across each seed's trial cells.

    A campaign cell counts the outcomes of one (configuration, site, seed,
    chunk) chunk of trials; coverage is only meaningful per seed-share of
    the campaign, so the samples are the per-seed merged reports, and the
    ``mean_ci`` aggregation over them is the across-seed interval."""
    sweeping = _faults_sweeping(request)
    seeds = tuple(request.settings.seeds)
    for rate in _faults_rates(request):
        rate_jobs = [job for job in jobs if job.param("fault_rate") == float(rate)]
        merged, per_seed = assemble_campaign_reports(rate_jobs, results)
        for configuration in merged:
            for seed in seeds:
                report = per_seed[(configuration, seed)]
                key: Tuple[object, ...] = (
                    (float(rate), configuration) if sweeping else (configuration,)
                )
                yield key, {
                    "trials": report.total,
                    "coverage": report.coverage,
                    "silent_corruption_rate": report.silent_corruption_rate,
                }


register_experiment(
    ExperimentSpec(
        name="faults",
        title="fault-injection coverage campaign (cell-shaped: parallel and cached)",
        family="faults",
        enumerate_jobs=_faults_jobs,
        schema=_faults_schema,
        cell_samples=_faults_samples,
        options=(
            SpecOption(
                name="fault_trials_per_site",
                flag="--trials",
                parse=parse_positive_int,
                metavar="N",
                help=(
                    "trials per (configuration, fault site, seed) "
                    "(default: the settings' count)"
                ),
            ),
            SpecOption(
                name="sweep_rates",
                flag="--sweep-rates",
                parse=parse_rate_list,
                metavar="R1,R2,...",
                help="sweep these fault-rate scales and print coverage vs rate",
            ),
            SpecOption(
                name="all_configurations",
                flag="--all-configurations",
                is_flag=True,
                help="include the extended configurations (e.g. dmr-plus-pab)",
            ),
        ),
        takes_workloads=False,
        run_all_group="faults",
    )
)


# ===================================================================== #
# Fleet: a traffic-driven datacenter of mixed-mode machines
# ===================================================================== #


def parse_scenario_list(value: str) -> Tuple[str, ...]:
    """A comma list of fleet scenario names, validated against the built-ins."""
    names = tuple(
        dict.fromkeys(part.strip() for part in value.split(",") if part.strip())
    )
    if not names:
        raise argparse.ArgumentTypeError("needs at least one scenario name")
    unknown = [name for name in names if name not in SCENARIO_NAMES]
    if unknown:
        known = ", ".join(SCENARIO_NAMES)
        raise argparse.ArgumentTypeError(
            f"unknown scenario(s) {', '.join(unknown)} (known: {known})"
        )
    return names


def _fleet_schema(request: SpecRequest) -> MetricSchema:
    settings = request.settings
    racks = fleet_topology(settings).num_racks
    return MetricSchema(
        keys=("scenario",),
        metrics=(
            _ipc_metric("fleet_throughput", "fleet throughput"),
            _ipc_metric("p99_degraded_throughput", "p99 degraded throughput"),
            MetricColumn("availability", label="availability", fmt="{:.4f}"),
            MetricColumn("migrations", aggregate="mean", fmt="{:.1f}"),
            MetricColumn(
                "exposure_cycles", unit="cycles", aggregate="mean",
                label="upgrade exposure", fmt="{:.0f}",
            ),
        ),
        views=(
            FrameView(
                title=(
                    f"Fleet SLOs: {settings.fleet_machines} machines / "
                    f"{racks} racks under scripted traffic "
                    "(per-machine cells, MMM-TP)"
                ),
                metrics=(
                    "fleet_throughput",
                    "p99_degraded_throughput",
                    "availability",
                    "migrations",
                    "exposure_cycles",
                ),
            ),
        ),
    )


register_experiment(
    ExperimentSpec(
        name="fleet",
        title="fleet scenarios: traffic-driven datacenter of mixed-mode machines",
        enumerate_jobs=lambda request: fleet_jobs(request.settings),
        schema=_fleet_schema,
        cell_samples=lambda request, jobs, results: fleet_samples(
            request, jobs, results
        ),
        options=(
            SpecOption(
                name="fleet_scenarios",
                flag="--scenarios",
                parse=parse_scenario_list,
                metavar="S1,S2,...",
                help=(
                    "fleet scenarios to run, e.g. 'failure-storm,diurnal' "
                    "(default: the settings' scenario list)"
                ),
            ),
            SpecOption(
                name="fleet_machines",
                flag="--machines",
                parse=parse_positive_int,
                metavar="N",
                help="fleet size in machines (default: the settings' fleet size)",
            ),
            SpecOption(
                name="fleet_racks",
                flag="--racks",
                parse=parse_positive_int,
                metavar="N",
                help=(
                    "racks to spread the fleet over, at most one per machine "
                    "(default: the settings')"
                ),
            ),
        ),
        workload_limit=2,
    )
)


# The fuzz spec lives with its subsystem; importing it here (after every
# registry name above is defined -- it imports back into this module)
# registers the always-on ``fuzz`` experiment.
import repro.sim.fuzz.spec  # noqa: E402,F401  isort:skip
