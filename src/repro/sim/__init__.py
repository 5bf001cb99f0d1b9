"""Simulation driver, results and experiment engine.

* :mod:`repro.sim.simulator` -- the event-driven, quantum-based simulation loop,
* :mod:`repro.sim.timeline` -- mid-run machine-reshaping event schedules,
* :mod:`repro.sim.results` -- result containers and metrics,
* :mod:`repro.sim.frames` -- the schema-driven typed results layer
  (``MetricSchema`` + ``ResultFrame``: generated rendering, export and
  baseline diffing),
* :mod:`repro.sim.settings` -- the shared experiment settings value,
* :mod:`repro.sim.jobs` -- the picklable per-cell job model,
* :mod:`repro.sim.runner` -- serial or process-pool job execution with caching,
* :mod:`repro.sim.specs` -- declarative experiment specs (one per paper
  table/figure) and the central ``EXPERIMENTS`` registry; running a spec
  returns its ``ResultFrame``,
* :mod:`repro.sim.experiments` -- the specs' job enumerators and timeline
  builders, and ``run_all_experiments`` (every spec in one batch).
"""

from repro.sim.frames import (
    FrameView,
    MetricColumn,
    MetricSchema,
    ResultFrame,
    diff_documents,
    diff_frames,
    document_frames,
    frames_document,
    frames_to_csv,
)
from repro.sim.jobs import ExperimentJob, execute_job
from repro.sim.results import SimulationResult, VmResult
from repro.sim.runner import (
    ExperimentRunner,
    ResultCache,
    RunnerBackend,
    RunnerStats,
    default_runner,
    set_default_runner,
    using_runner,
)
from repro.sim.settings import ExperimentSettings

# Imported after the engine modules above: registers every built-in
# experiment spec in the EXPERIMENTS registry as an import-time side effect.
from repro.sim.specs import (
    EXPERIMENTS,
    ExperimentSpec,
    SpecOption,
    SpecRequest,
    experiment,
    register_experiment,
)
from repro.sim.simulator import SimulationOptions, Simulator
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

__all__ = [
    "MetricSchema",
    "MetricColumn",
    "FrameView",
    "ResultFrame",
    "diff_frames",
    "diff_documents",
    "frames_document",
    "document_frames",
    "frames_to_csv",
    "Timeline",
    "TimelineEvent",
    "CoreFailed",
    "CoreRepaired",
    "VmArrived",
    "VmDeparted",
    "PolicyChanged",
    "ReliabilityModeChanged",
    "FaultRateBurst",
    "SimulationResult",
    "VmResult",
    "SimulationOptions",
    "Simulator",
    "ExperimentSettings",
    "ExperimentJob",
    "execute_job",
    "ExperimentRunner",
    "ResultCache",
    "RunnerBackend",
    "RunnerStats",
    "default_runner",
    "set_default_runner",
    "using_runner",
    "EXPERIMENTS",
    "ExperimentSpec",
    "SpecOption",
    "SpecRequest",
    "experiment",
    "register_experiment",
]
