"""The unit of work of the experiment engine: one picklable simulation cell.

Every cell of the paper's evaluation -- one (experiment, workload,
configuration-variant, seed) combination -- is described by an
:class:`ExperimentJob`.  A job is a frozen dataclass of plain values, so it

* pickles cleanly across :class:`concurrent.futures.ProcessPoolExecutor`
  workers (the machine itself is rebuilt inside the worker),
* hashes and compares by value, letting the runner deduplicate identical
  cells within a batch, and
* derives a deterministic :meth:`~ExperimentJob.cache_key` from its settings
  hash, which is what makes the on-disk result cache of
  :mod:`repro.sim.runner` sound: two jobs share a key exactly when they
  describe the same simulation.

A job holds only what its cell varies in.  A machine that is the same for
every cell of a kind -- the paper machine of Table 1 and of the fault
campaign, the evaluation machine of Table 2 -- is built by the kind's
executor rather than carried in each job.

:func:`execute_job` maps a job to its JSON-serializable ``{metric: value}``
dictionary.  It is a module-level function on purpose: process-pool workers
import it by reference.  The experiment *specs* registered in
:mod:`repro.sim.specs` enumerate jobs, hand them to a runner, and assemble
the result dataclasses of :mod:`repro.sim.experiments` from the returned
metrics.

Job *kinds* are pluggable: :func:`register_job_kind` maps a kind name to its
cell executor, so new cell families join the engine without touching
:mod:`repro.sim.runner` or this module.  The simulation-shaped kinds below
register themselves here; the fault-injection campaign registers a
``faults`` kind from :mod:`repro.faults.cells` (imported by the ``repro``
package, so pool workers see the registration too).  Kinds compose with the
two other extension seams: a new *experiment* over existing kinds is an
:class:`~repro.sim.specs.ExperimentSpec`, and a new execution substrate is
a :class:`~repro.sim.runner.RunnerBackend`.
"""

from __future__ import annotations

import copy
import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import repro
from repro.common.stats import mean
from repro.config.presets import evaluation_system_config, paper_system_config
from repro.config.system import ConsistencyModel, PabLookupMode, SystemConfig
from repro.core.machine import MixedModeMachine, VmSpec
from repro.core.transitions import TransitionFlavor
from repro.cpu.timing import CoreAssignment, ExecutionMode
from repro.errors import ExperimentError, ReproError
from repro.sim.results import SimulationResult
from repro.sim.settings import ExperimentSettings
from repro.sim.simulator import SimulationOptions, Simulator
from repro.sim.timeline import Timeline
from repro.virt.vcpu import ReliabilityMode

#: Bump whenever the meaning of a job's metrics changes incompatibly; old
#: on-disk cache entries are then ignored.  Simulator *behaviour* changes do
#: not need a bump: the cache key also digests the package's source code
#: (see :func:`code_fingerprint`), so results simulated by different code
#: are never served as current.
#:
#: Version 2: metric dicts are assembled into typed ``ResultFrame`` rows
#: (:mod:`repro.sim.frames`); pre-frame entries must be clean misses rather
#: than risk mis-assembling into frames.  ``repro cache stats`` reports the
#: per-version breakdown of whatever is on disk.
#:
#: Version 3: records gain ``kind``/``ts`` envelope fields and payloads are
#: compact (no pretty-printing).  The version numbers the record envelope,
#: not the file layout of :mod:`repro.sim.store`.  Entries written under an
#: older version are misses.
#:
#: Version 4: a record holds only ``schema``, ``key`` and ``metrics``, and a
#: ``faults`` cell's metrics are its outcome counts (``{outcome name:
#: count}``) instead of serialized trial records.
CACHE_SCHEMA_VERSION = 4

_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of every ``repro`` source file, computed once per process.

    Folding this into the job cache keys makes stale cache hits structurally
    impossible: any edit to the package invalidates every cached cell, with
    no human in the loop to forget a version bump.  (Falls back to the
    package version when the sources are not on disk.)
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        digest = hashlib.sha256()
        package_root = Path(repro.__file__).parent
        sources = sorted(package_root.rglob("*.py"))
        if not sources:
            digest.update(getattr(repro, "__version__", "unknown").encode("utf-8"))
        for path in sources:
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT

#: Configuration labels of Figure 5, in presentation order.
FIGURE5_CONFIGS = ("no-dmr-2x", "no-dmr", "reunion")

#: Configuration labels of Figure 6, in presentation order.
FIGURE6_CONFIGS = ("dmr-base", "mmm-ipc", "mmm-tp")

#: Variants of the window/consistency ablation, in presentation order.
ABLATION_VARIANTS: Dict[str, Tuple[int, ConsistencyModel]] = {
    "window128-sc": (128, ConsistencyModel.SEQUENTIAL),
    "window256-sc": (256, ConsistencyModel.SEQUENTIAL),
    "window256-tso": (256, ConsistencyModel.TSO),
}

#: Values allowed in a job's ``params`` payload (JSON scalars).
ParamValue = Union[int, float, str, bool, None]


@dataclass(frozen=True)
class ExperimentJob:
    """One (experiment, workload, config-variant, seed) experiment cell."""

    #: Which cell family the job belongs to -- any name registered via
    #: :func:`register_job_kind` (``figure5``, ``figure6``, ``pab``,
    #: ``table1``, ``table2``, ``ablation``, ``faults``, ...).
    kind: str
    #: Workload name for simulation cells; kinds without a workload axis
    #: repurpose the field for their primary axis (fault cells store the
    #: fault-site name here).
    workload: str
    #: Kind-specific configuration label (Figure 5/6 configuration, PAB
    #: lookup mode, ablation variant, campaign configuration); empty when
    #: the kind has none.
    variant: str = ""
    seed: int = 0
    #: Sweep settings for the cells driven by :class:`ExperimentSettings`
    #: (normalised via :meth:`ExperimentSettings.cell_settings`); every kind
    #: but ``faults`` carries them.
    settings: Optional[ExperimentSettings] = None
    #: Extra kind-specific knobs as a sorted tuple of (name, scalar) pairs.
    params: Tuple[Tuple[str, ParamValue], ...] = ()

    def param(self, name: str, default: ParamValue = None) -> ParamValue:
        """Read one entry of the ``params`` payload."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def label(self) -> str:
        """Human-readable cell name for logs and error messages."""
        parts = [self.kind, self.workload]
        if self.variant:
            parts.append(self.variant)
        parts.append(f"seed{self.seed}")
        return "/".join(parts)

    def to_dict(self) -> Dict[str, object]:
        """A canonical JSON-safe description of the cell."""
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": self.kind,
            "workload": self.workload,
            "variant": self.variant,
            "seed": self.seed,
            "settings": asdict(self.settings) if self.settings is not None else None,
            "params": dict(self.params),
        }

    def cache_key(self) -> str:
        """Deterministic digest of everything that influences the result:
        the full cell description plus the simulating code itself."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        payload = code_fingerprint() + "\0" + canonical
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # Wire format (the distributed runner ships cells as JSON)
    # ------------------------------------------------------------------ #

    def to_wire(self) -> Dict[str, object]:
        """A JSON-safe description that :meth:`from_wire` rebuilds exactly.

        Unlike :meth:`to_dict` (whose ``params`` mapping loses pair order),
        the wire form keeps ``params`` as an ordered list of pairs and
        embeds the sender's :meth:`cache_key`, so a receiving worker can
        verify that its rebuild -- and its *code* -- agree with the sender
        before simulating anything.
        """
        payload = self.to_dict()
        payload["params"] = [[name, value] for name, value in self.params]
        payload["key"] = self.cache_key()
        return payload

    @classmethod
    def from_wire(cls, payload: object) -> "ExperimentJob":
        """Rebuild a :meth:`to_wire` payload, verifying the embedded cache key.

        ``settings`` is reconstructed into its dataclass, so equality and
        :meth:`cache_key` survive a JSON round trip.  A missing or malformed
        field -- the ``key`` included -- is refused with an
        :class:`ExperimentError` naming it.

        A key mismatch means the rebuild is not the cell the sender
        described -- most likely the two ends run *different code* (the
        cache key digests the package sources), in which case executing
        the cell would poison the shared cache with results the sender's
        code never produced.
        """
        if not isinstance(payload, Mapping):
            raise ExperimentError(
                f"a wire cell must be an object, not {type(payload).__name__}"
            )
        expected = _wire_field(payload, "key", str)
        job = cls(
            kind=_wire_field(payload, "kind", str),
            workload=_wire_field(payload, "workload", str),
            variant=_wire_field(payload, "variant", str),
            seed=_wire_field(payload, "seed", int),
            settings=_wire_field(
                payload,
                "settings",
                lambda value: None if value is None else ExperimentSettings.from_dict(value),
            ),
            params=_wire_field(
                payload,
                "params",
                lambda pairs: tuple((str(name), value) for name, value in pairs),
            ),
        )
        if job.cache_key() != expected:
            raise ExperimentError(
                f"wire cell {job.label} rebuilds with cache key "
                f"{job.cache_key()[:12]}..., but the sender computed "
                f"{expected[:12]}...; the two ends are running "
                "different repro code (or the payload was corrupted)"
            )
        return job


def _wire_field(
    payload: Mapping[str, object], name: str, decode: Callable[[object], object]
) -> object:
    """One decoded field of a wire cell; a missing or malformed one is
    refused by name."""
    if name not in payload:
        raise ExperimentError(f"wire cell has no {name!r} field")
    try:
        return decode(payload[name])
    except (ReproError, TypeError, ValueError) as error:
        raise ExperimentError(f"wire cell field {name!r} is malformed: {error}") from None


# ===================================================================== #
# Job-kind registry
# ===================================================================== #

#: A cell executor: one job in, a flat JSON-serializable metrics dict out.
JobExecutor = Callable[[ExperimentJob], Dict[str, object]]

_EXECUTORS: Dict[str, JobExecutor] = {}


def register_job_kind(
    kind: str,
    executor: Optional[JobExecutor] = None,
    *,
    replace: bool = False,
) -> Callable[[JobExecutor], JobExecutor]:
    """Register the executor of one job kind (usable as a decorator).

    The executor must be a picklable module-level function: process-pool
    workers re-import the module that registers it, so the registration must
    be an import-time side effect of that module.  Registering an existing
    kind raises unless ``replace=True``; re-registering the *same* function
    -- by identity, or by module and qualified name after a module reload --
    is a harmless no-op.
    """

    def _register(function: JobExecutor) -> JobExecutor:
        current = _EXECUTORS.get(kind)
        same = current is not None and (
            current is function
            or (
                getattr(current, "__module__", None) == getattr(function, "__module__", None)
                and getattr(current, "__qualname__", None) == getattr(function, "__qualname__", None)
            )
        )
        if current is not None and not same and not replace:
            raise ExperimentError(f"job kind {kind!r} is already registered")
        _EXECUTORS[kind] = function
        return function

    if executor is None:
        return _register
    return _register(executor)


def registered_job_kinds() -> Tuple[str, ...]:
    """The job kinds the engine currently knows how to execute, sorted."""
    return tuple(sorted(_EXECUTORS))


def execute_job(job: ExperimentJob) -> Dict[str, object]:
    """Run one cell and return its flat metric dictionary.

    Module-level so that :class:`concurrent.futures.ProcessPoolExecutor`
    workers can import it by reference; the cell's machinery is rebuilt
    inside the worker from the job's plain-value description.  Dispatches on
    the job-kind registry, so every registered cell family -- simulation
    cells below, fault-campaign cells from :mod:`repro.faults.cells` --
    runs through the same runner.
    """
    try:
        executor = _EXECUTORS[job.kind]
    except KeyError:
        known = ", ".join(registered_job_kinds()) or "none"
        raise ExperimentError(
            f"unknown experiment job kind {job.kind!r} (registered kinds: {known})"
        ) from None
    return executor(job)


# ===================================================================== #
# Machine builders
# ===================================================================== #

#: What a machine is built from besides its seed: the configuration, the
#: guest VMs and the name of the mapping policy.
MachineParts = Tuple[SystemConfig, Tuple[VmSpec, ...], str]

#: The consolidated server's reliable guest, by which its metrics and any
#: timeline that changes its mode (a fleet upgrade) name it.
RELIABLE_VM = "reliable"


def burst_vm_name(index: int) -> str:
    """The churn machine's ``index``-th deferred burst guest, by which the
    churn and fleet timelines admit and drain it."""
    return f"burst{index}"


def _figure5_parts(
    settings: ExperimentSettings,
    workload: str,
    configuration: str,
    config: Optional[SystemConfig] = None,
) -> MachineParts:
    config = config if config is not None else settings.config()
    if configuration == "no-dmr-2x":
        num_vcpus, policy = config.num_cores, "no-dmr"
    elif configuration == "no-dmr":
        num_vcpus, policy = config.num_cores // 2, "no-dmr"
    elif configuration == "reunion":
        num_vcpus, policy = config.num_cores // 2, "dmr-base"
    else:
        raise ExperimentError(f"unknown Figure 5 configuration {configuration!r}")
    spec = VmSpec(
        name="baseline",
        workload=workload,
        num_vcpus=num_vcpus,
        reliability=ReliabilityMode.RELIABLE,
        phase_scale=settings.phase_scale,
        footprint_scale=settings.footprint_scale,
    )
    return config, (spec,), policy


def _figure6_parts(
    settings: ExperimentSettings,
    workload: str,
    configuration: str,
    config: Optional[SystemConfig] = None,
) -> MachineParts:
    """The consolidated server: a reliable guest beside a performance guest.

    The churn machine extends its ``mmm-tp`` configuration, so the churn
    and fleet scenarios always run exactly the server Figure 6 measures.
    """
    config = config if config is not None else settings.config()
    if configuration == "dmr-base":
        policy, perf_vcpus, perf_mode = "dmr-base", config.num_cores // 2, ReliabilityMode.RELIABLE
    elif configuration == "mmm-ipc":
        policy, perf_vcpus, perf_mode = "mmm-ipc", config.num_cores // 2, ReliabilityMode.PERFORMANCE
    elif configuration == "mmm-tp":
        policy, perf_vcpus, perf_mode = "mmm-tp", config.num_cores, ReliabilityMode.PERFORMANCE
    else:
        raise ExperimentError(f"unknown Figure 6 configuration {configuration!r}")
    specs = (
        VmSpec(
            name=RELIABLE_VM,
            workload=workload,
            num_vcpus=min(settings.reliable_vcpus, config.num_cores // 2),
            reliability=ReliabilityMode.RELIABLE,
            phase_scale=settings.phase_scale,
            footprint_scale=settings.footprint_scale,
        ),
        VmSpec(
            name="performance",
            workload=workload,
            num_vcpus=perf_vcpus,
            reliability=perf_mode,
            phase_scale=settings.phase_scale,
            footprint_scale=settings.footprint_scale,
        ),
    )
    return config, specs, policy


def _churn_parts(
    settings: ExperimentSettings, workload: str, extra_vms: int
) -> MachineParts:
    """The consolidated server plus ``extra_vms`` deferred performance VMs.

    The base machine is the Figure 6 ``mmm-tp`` consolidated server; the
    extra guests (named by :func:`burst_vm_name`) are built deferred
    (``present_at_start=False``) so the job's timeline can admit and drain
    them mid-run with ``VmArrived``/``VmDeparted`` events.
    """
    config, specs, policy = _figure6_parts(settings, workload, "mmm-tp")
    burst = tuple(
        VmSpec(
            name=burst_vm_name(index),
            workload=workload,
            num_vcpus=max(1, config.num_cores // 4),
            reliability=ReliabilityMode.PERFORMANCE,
            phase_scale=settings.phase_scale,
            footprint_scale=settings.footprint_scale,
            present_at_start=False,
        )
        for index in range(extra_vms)
    )
    return config, specs + burst, policy


def _churn_machine(settings: ExperimentSettings, job: ExperimentJob) -> MachineParts:
    return _churn_parts(settings, job.workload, int(job.param("extra_vms", 0)))


def _ablation_config(settings: ExperimentSettings, variant: str) -> SystemConfig:
    try:
        window, consistency = ABLATION_VARIANTS[variant]
    except KeyError:
        raise ExperimentError(f"unknown ablation variant {variant!r}") from None
    return settings.config().with_window_entries(window).with_consistency(consistency)


#: How each Simulator-driven kind describes the machine of one of its cells:
#: the only description of a simulated cell's machine, and with
#: :func:`simulate_cell` the only way such a cell runs.
_CELL_MACHINES: Dict[str, Callable[[ExperimentSettings, ExperimentJob], MachineParts]] = {
    "figure5": lambda settings, job: _figure5_parts(settings, job.workload, job.variant),
    "figure6": lambda settings, job: _figure6_parts(settings, job.workload, job.variant),
    # Figure 6's MMM-TP server with the cell's PAB lookup mode.
    "pab": lambda settings, job: _figure6_parts(
        settings,
        job.workload,
        "mmm-tp",
        settings.config().with_pab_lookup(PabLookupMode(job.variant)),
    ),
    # Figure 5's Reunion machine with the variant's window and consistency.
    "ablation": lambda settings, job: _figure5_parts(
        settings, job.workload, "reunion", _ablation_config(settings, job.variant)
    ),
    # Figure 5's Reunion machine; its cores fail on the schedule carried by
    # the job's timeline.
    "degradation": lambda settings, job: _figure5_parts(settings, job.workload, "reunion"),
    "churn": _churn_machine,
    # One fleet machine is the churn server with the fleet's burst slots;
    # the fleet scheduler's timeline admits, drains and migrates them.
    "fleet": _churn_machine,
}


def _require_settings(job: ExperimentJob) -> ExperimentSettings:
    if job.settings is None:
        raise ExperimentError(f"job {job.label} needs ExperimentSettings")
    return job.settings


# ===================================================================== #
# Simulation identities and batch sharing
# ===================================================================== #


class SimulationIdentity(NamedTuple):
    """Everything the run of one Simulator-driven cell is built from.

    Cells can build the same run -- the ablation's ``window128-sc`` variant
    and the degradation sweep's ``fail0`` point are Figure 5's Reunion
    machine, the PAB study's ``parallel`` point is Figure 6's MMM-TP server,
    and two fleet machines with the same workload, seed and timeline are
    one churn server run -- and then share one identity.  The tuple is
    hashable, so it is itself the key under which a batch shares the run.
    """

    config: SystemConfig
    vm_specs: Tuple[VmSpec, ...]
    policy: str
    seed: int
    options: SimulationOptions
    #: The canonical JSON of the job's event timeline (``None``: no events).
    timeline: Optional[str]

    def machine(self) -> MixedModeMachine:
        """Build the machine this identity describes, ready to simulate."""
        return MixedModeMachine(
            config=self.config,
            vm_specs=self.vm_specs,
            policy=self.policy,
            seed=self.seed,
        )


def simulation_identity(job: ExperimentJob) -> Optional[SimulationIdentity]:
    """The identity of the run a cell builds, or ``None`` when the cell's
    kind has no entry in ``_CELL_MACHINES`` and so does not run through
    :func:`simulate_cell` (``table1``, ``table2``, ``faults``, ``fuzz``).

    Cheap: it describes the machine without building it.
    """
    describe = _CELL_MACHINES.get(job.kind)
    if describe is None:
        return None
    settings = _require_settings(job)
    config, vm_specs, policy = describe(settings, job)
    timeline = job.param("timeline")
    return SimulationIdentity(
        config=config,
        vm_specs=vm_specs,
        policy=policy,
        seed=job.seed,
        options=settings.options(),
        timeline=str(timeline) if timeline else None,
    )


def _simulate(identity: SimulationIdentity) -> SimulationResult:
    """Build and run the machine ``identity`` describes."""
    timeline = Timeline.from_json(identity.timeline) if identity.timeline else None
    return Simulator(identity.machine(), identity.options, timeline=timeline).run()


def simulate_cell(job: ExperimentJob) -> SimulationResult:
    """Build and run the machine of one Simulator-driven cell.

    Used by the cell executors below and directly by the determinism tests:
    the returned :class:`SimulationResult` (not just the extracted metrics)
    must be identical whether the cell runs in-process or in a pool worker,
    and whether or not a batch-mate shared its run (see
    :func:`shared_simulations`).
    """
    identity = simulation_identity(job)
    if identity is None:
        raise ExperimentError(f"{job.kind!r} cells are not Simulator-driven")
    sharing = _SHARING.get()
    if sharing is None:
        return _simulate(identity)
    return sharing.result(identity)


class SharedSimulations:
    """One batch's runs, each simulated once for every cell that builds it.

    Consumers are counted on the first request, so a batch whose cells
    never reach :func:`simulate_cell` in this context (they run in pool
    workers, or are of other kinds) costs nothing.  Identities with a
    single consumer bypass the store; a shared run is kept only until its
    last consumer has it, and every consumer gets its own copy, because a
    :class:`SimulationResult` is mutable.
    """

    def __init__(self, pending: Sequence[ExperimentJob]) -> None:
        self._pending = pending
        self._consumers: Optional[Dict[SimulationIdentity, int]] = None
        self._results: Dict[SimulationIdentity, SimulationResult] = {}
        #: Cells served a run a batch-mate simulated.
        self.served = 0

    def result(self, identity: SimulationIdentity) -> SimulationResult:
        """One consumer's own result of the run ``identity`` describes."""
        if self._consumers is None:
            counts = Counter(filter(None, map(_identity_or_none, self._pending)))
            self._consumers = {key: count for key, count in counts.items() if count > 1}
        left = self._consumers.pop(identity, 0) - 1
        if left < 0:
            return _simulate(identity)
        result = self._results.pop(identity, None)
        if result is None:
            result = _simulate(identity)
        else:
            self.served += 1
        if not left:
            return result
        self._consumers[identity] = left
        self._results[identity] = result
        return copy.deepcopy(result)

    def retained(self) -> int:
        """How many runs are held for consumers still to come."""
        return len(self._results)


def _identity_or_none(job: ExperimentJob) -> Optional[SimulationIdentity]:
    try:
        return simulation_identity(job)
    except (ReproError, ValueError):
        # A malformed cell shares nothing; it raises when it runs.
        return None


#: The batch whose cells share their runs, inside :func:`shared_simulations`.
#: Other threads (a worker loop run in the same process) start from an empty
#: context, so they never see it.
_SHARING: ContextVar[Optional[SharedSimulations]] = ContextVar(
    "repro_shared_simulations", default=None
)


@contextmanager
def shared_simulations(pending: Sequence[ExperimentJob]) -> Iterator[SharedSimulations]:
    """Within the block, cells of ``pending`` that build the same run in
    this context simulate it once (see :class:`SharedSimulations`).

    Nothing outlives the block, also when a cell raises.
    """
    sharing = SharedSimulations(pending)
    token = _SHARING.set(sharing)
    try:
        yield sharing
    finally:
        _SHARING.reset(token)
        sharing._results.clear()


# ===================================================================== #
# Cell executors (one per experiment kind)
# ===================================================================== #


@register_job_kind("figure5")
def _execute_figure5(job: ExperimentJob) -> Dict[str, float]:
    run = simulate_cell(job)
    vm = run.vm("baseline")
    return {
        "user_ipc": vm.average_user_ipc(run.total_cycles),
        "throughput": run.overall_throughput(),
    }


@register_job_kind("figure6")
def _execute_figure6(job: ExperimentJob) -> Dict[str, float]:
    run = simulate_cell(job)
    reliable = run.vm(RELIABLE_VM)
    performance = run.vm("performance")
    return {
        "reliable_ipc": reliable.average_user_ipc(run.total_cycles),
        "performance_ipc": performance.average_user_ipc(run.total_cycles),
        "reliable_throughput": reliable.throughput(run.total_cycles),
        "performance_throughput": performance.throughput(run.total_cycles),
        "overall_throughput": run.overall_throughput(),
    }


@register_job_kind("pab")
def _execute_pab(job: ExperimentJob) -> Dict[str, float]:
    run = simulate_cell(job)
    return {
        "performance_ipc": run.vm("performance").average_user_ipc(run.total_cycles),
        "reliable_ipc": run.vm(RELIABLE_VM).average_user_ipc(run.total_cycles),
    }


@register_job_kind("ablation")
def _execute_ablation(job: ExperimentJob) -> Dict[str, float]:
    run = simulate_cell(job)
    return {"user_ipc": run.vm("baseline").average_user_ipc(run.total_cycles)}


@register_job_kind("degradation")
def _execute_degradation(job: ExperimentJob) -> Dict[str, float]:
    """One graceful-degradation cell: cores fail mid-run on a schedule."""
    settings = _require_settings(job)
    run = simulate_cell(job)
    vm = run.vm("baseline")
    failed = int(job.param("failed_cores", 0))
    return {
        "throughput": run.overall_throughput(),
        "user_ipc": vm.average_user_ipc(run.total_cycles),
        "surviving_cores": settings.config().num_cores - failed,
        "paused_vcpu_quanta": run.paused_vcpu_quanta,
        "events_applied": run.timeline_events_applied,
    }


@register_job_kind("churn")
def _execute_churn(job: ExperimentJob) -> Dict[str, float]:
    """One consolidation-churn cell: guest VMs arrive and depart mid-run."""
    run = simulate_cell(job)
    used = float(run.quantum_stats.get("core_cycles_used", 0.0))
    capacity = float(run.quantum_stats.get("core_cycles_capacity", 0.0))
    return {
        "overall_throughput": run.overall_throughput(),
        "reliable_ipc": run.vm(RELIABLE_VM).average_user_ipc(run.total_cycles),
        "utilization": used / capacity if capacity else 0.0,
        "transitions": run.transitions,
        "transition_cycles": run.transition_cycles,
        "events_applied": run.timeline_events_applied,
    }


@register_job_kind("table1")
def _execute_table1(job: ExperimentJob) -> Dict[str, float]:
    """Measure Enter/Leave-DMR costs for one workload (Table 1)."""
    settings = _require_settings(job)
    config = paper_system_config()
    warmup_cycles = settings.switch_warmup_cycles
    specs = [
        VmSpec(
            name="reliable",
            workload=job.workload,
            num_vcpus=config.num_cores // 2,
            reliability=ReliabilityMode.RELIABLE,
            phase_scale=0.02,
        ),
        VmSpec(
            name="performance",
            workload=job.workload,
            num_vcpus=config.num_cores,
            reliability=ReliabilityMode.PERFORMANCE,
            phase_scale=0.02,
        ),
    ]
    machine = MixedModeMachine(
        config=config, vm_specs=specs, policy="mmm-tp", seed=job.seed
    )
    reliable_vcpu = machine.vms[0].vcpus[0]
    perf_vcpu_a = machine.vms[1].vcpus[0]
    perf_vcpu_b = machine.vms[1].vcpus[1]

    # Warm the caches with a little DMR and performance execution so that
    # transition costs reflect realistic cache contents.
    machine.hierarchy.begin_window(warmup_cycles)
    # In steady state every VCPU's scratchpad save area has been written
    # many times and lives in the (large) cache hierarchy; touch the slots
    # once so the measured transitions do not pay compulsory DRAM misses.
    for vcpu in (reliable_vcpu, perf_vcpu_a, perf_vcpu_b):
        for copy in ("primary", "redundant"):
            for address in machine.scratchpad.line_addresses(vcpu.vcpu_id, copy):
                machine.hierarchy.load(0, address)
                machine.hierarchy.load(1, address, coherent=False)
    machine.timing_model.run_quantum(
        workload=reliable_vcpu.workload,
        assignment=CoreAssignment(
            mode=ExecutionMode.DMR,
            primary_core=0,
            secondary_core=1,
            reunion_pair=machine.pair_factory(0, 1),
        ),
        cycle_budget=warmup_cycles,
        vcpu_id=reliable_vcpu.vcpu_id,
    )
    machine.timing_model.run_quantum(
        workload=perf_vcpu_a.workload,
        assignment=CoreAssignment(mode=ExecutionMode.PERFORMANCE, primary_core=2),
        cycle_budget=warmup_cycles,
        vcpu_id=perf_vcpu_a.vcpu_id,
    )

    enter_costs: List[float] = []
    leave_costs: List[float] = []
    for index in range(settings.switch_transitions):
        leave = machine.transition_engine.leave_dmr(
            vocal_core=0,
            mute_core=1,
            vcpu=reliable_vcpu,
            incoming_vocal_vcpu=perf_vcpu_a,
            incoming_mute_vcpu=perf_vcpu_b,
            flavor=TransitionFlavor.MMM_TP,
            current_cycle=index,
        )
        leave_costs.append(leave.total_cycles)
        # Run a little in performance mode so the next Enter has work to
        # context switch out and the mute core has incoherent lines again.
        machine.timing_model.run_quantum(
            workload=perf_vcpu_a.workload,
            assignment=CoreAssignment(mode=ExecutionMode.PERFORMANCE, primary_core=0),
            cycle_budget=2_000,
            vcpu_id=perf_vcpu_a.vcpu_id,
        )
        machine.timing_model.run_quantum(
            workload=perf_vcpu_b.workload,
            assignment=CoreAssignment(mode=ExecutionMode.PERFORMANCE, primary_core=1),
            cycle_budget=2_000,
            vcpu_id=perf_vcpu_b.vcpu_id,
        )
        enter = machine.transition_engine.enter_dmr(
            vocal_core=0,
            mute_core=1,
            vcpu=reliable_vcpu,
            outgoing_vocal_vcpu=perf_vcpu_a,
            outgoing_mute_vcpu=perf_vcpu_b,
            flavor=TransitionFlavor.MMM_TP,
            current_cycle=index,
        )
        enter_costs.append(enter.total_cycles)
        # Run a little in DMR mode so the mute cache is populated again.
        machine.timing_model.run_quantum(
            workload=reliable_vcpu.workload,
            assignment=CoreAssignment(
                mode=ExecutionMode.DMR,
                primary_core=0,
                secondary_core=1,
                reunion_pair=machine.pair_factory(0, 1),
            ),
            cycle_budget=2_000,
            vcpu_id=reliable_vcpu.vcpu_id,
        )
    return {
        "enter_dmr_cycles": mean(enter_costs),
        "leave_dmr_cycles": mean(leave_costs),
    }


@register_job_kind("table2")
def _execute_table2(job: ExperimentJob) -> Dict[str, float]:
    """Time user and OS phases of one workload (Table 2)."""
    settings = _require_settings(job)
    config = evaluation_system_config()
    measurement_phase_scale = settings.frequency_phase_scale
    spec = VmSpec(
        name="baseline",
        workload=job.workload,
        num_vcpus=1,
        reliability=ReliabilityMode.RELIABLE,
        phase_scale=measurement_phase_scale,
        footprint_scale=1.0 / 8,
    )
    machine = MixedModeMachine(
        config=config, vm_specs=[spec], policy="no-dmr", seed=job.seed
    )
    vcpu = machine.vms[0].vcpus[0]
    assignment = CoreAssignment(mode=ExecutionMode.BASELINE, primary_core=0)
    machine.hierarchy.begin_window(1_000_000)

    user_cycles: List[float] = []
    os_cycles: List[float] = []
    # Discard the first partial phase, then time alternate phases.
    machine.timing_model.run_quantum(
        workload=vcpu.workload,
        assignment=assignment,
        cycle_budget=10_000_000,
        vcpu_id=vcpu.vcpu_id,
        stop_on_os_entry=True,
    )
    for _ in range(settings.frequency_phases):
        os_run = machine.timing_model.run_quantum(
            workload=vcpu.workload,
            assignment=assignment,
            cycle_budget=50_000_000,
            vcpu_id=vcpu.vcpu_id,
            stop_on_os_exit=True,
        )
        os_cycles.append(os_run.cycles)
        user_run = machine.timing_model.run_quantum(
            workload=vcpu.workload,
            assignment=assignment,
            cycle_budget=50_000_000,
            vcpu_id=vcpu.vcpu_id,
            stop_on_os_entry=True,
        )
        user_cycles.append(user_run.cycles)
    scale = 1.0 / measurement_phase_scale
    return {
        "user_cycles": mean(user_cycles) * scale,
        "os_cycles": mean(os_cycles) * scale,
    }
