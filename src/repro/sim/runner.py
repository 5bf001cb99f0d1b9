"""Experiment execution with an on-disk result cache.

:class:`ExperimentRunner` executes batches of
:class:`~repro.sim.jobs.ExperimentJob` cells through a
:class:`RunnerBackend`, one of three:

* ``serial`` -- in the calling process, one cell at a time (one worker);
* ``process`` -- fanned out over a
  :class:`concurrent.futures.ProcessPoolExecutor` in adaptive chunks
  (``--jobs N`` on the CLI);
* ``distributed`` -- shipped to a coordinator and its worker fleet
  (:class:`repro.sim.distributed.backend.DistributedBackend`,
  ``--coordinator URL`` on the CLI).

A backend only maps a list of pending cells to their metrics; the runner's
caching, memoisation and stats stay the same whichever runs them.  Because
every job is a plain-value description of its cell and every cell is seeded
deterministically, all backends produce byte-identical results; the
determinism tests in ``tests/test_runner.py`` and ``tests/test_specs.py``
assert exactly that contract.

Results are memoised twice:

* **in memory** for the lifetime of the runner (a batch that enumerates the
  same cell twice simulates it once), and
* **on disk** (optional) through a result store from
  :mod:`repro.sim.store` (one SQLite table; see that module for the
  format), probed and written through its *batched* APIs: the cache-hit
  phase probes the whole batch at once, and the execute phase stores
  completed cells in chunks (one transaction per chunk).  Cells still
  land in the cache as their chunk completes, so a re-run after an
  interrupted or extended sweep only executes the cells that are missing
  or whose description changed.  The cache key is a SHA-256 digest over
  the *full* cell description (settings, configuration, seed,
  kind-specific parameters, schema version) *and* a fingerprint of the
  ``repro`` package's source code, so results simulated by different code
  can never be served as current.

Distinct cells can still build the same machine (the ablation's baseline
window is Figure 5's Reunion run); cells executed in the calling process
share such a run within the batch (:func:`repro.sim.jobs.shared_simulations`).

``runner.stats`` records how many cells were executed versus served from the
caches; the warm-cache tests assert ``executed == 0`` on a second run.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ExperimentError
from repro.sim.jobs import ExperimentJob, execute_job, shared_simulations

# Result stores live in repro.sim.store; re-exported here because this
# module has always been their import location.
from repro.sim.store import (  # noqa: F401  (re-exports)
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    CacheKindStats,
    CachePruneResult,
    JsonValue,
    Metrics,
    ResultCache,
    default_cache_dir,
)


@dataclass
class RunnerStats:
    """How a batch (or a runner lifetime) was served, and how long it took."""

    #: Cells actually simulated.
    executed: int = 0
    #: Cells served from the on-disk cache.
    cached: int = 0
    #: Cells served from the runner's in-memory memo (duplicates included).
    memoized: int = 0
    #: Executed cells whose simulation a batch-mate that builds the same
    #: machine ran (see :func:`repro.sim.jobs.shared_simulations`).
    shared: int = 0
    #: Wall-clock seconds spent in timed engine phases (they are sequential,
    #: so this is the engine's end-to-end wall time).
    wall_seconds: float = 0.0
    #: Per-phase wall-clock seconds, in first-entry order.  The standard
    #: phases are ``enumerate`` (specs producing jobs), ``cache-hit`` (the
    #: memo and on-disk cache probes), ``execute`` (the backend running
    #: pending cells) and ``assemble`` (folding metrics into frames), so a
    #: backend speedup -- or a cache regression -- is measurable from any
    #: invocation's end-of-run summary.
    phase_seconds: Dict[str, float] = dataclass_field(default_factory=dict)

    @property
    def total(self) -> int:
        """Total cell requests."""
        return self.executed + self.cached + self.memoized

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a named engine phase (re-entry accumulates)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed
            self.wall_seconds += elapsed

    def summary(self) -> str:
        """One-line human-readable account of the batch."""
        line = (
            f"{self.executed} executed, {self.cached} from cache, "
            f"{self.memoized} memoized"
        )
        if self.phase_seconds:
            phases = ", ".join(
                f"{name} {seconds:.2f}s"
                for name, seconds in self.phase_seconds.items()
            )
            line += f" | {self.wall_seconds:.2f}s wall ({phases})"
        return line

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable form (the CLI's stderr stats line)."""
        return {
            "executed": self.executed,
            "cached": self.cached,
            "memoized": self.memoized,
            "shared": self.shared,
            "total": self.total,
            "wall_seconds": round(self.wall_seconds, 6),
            "phases": {
                name: round(seconds, 6)
                for name, seconds in self.phase_seconds.items()
            },
        }


# ---------------------------------------------------------------------- #
# Runner backends
# ---------------------------------------------------------------------- #

#: A cell executor: one job in, its metrics out.
JobExecutor = Callable[[ExperimentJob], Metrics]

#: Upper bound on jobs shipped per IPC round / distributed lease.  Large
#: enough to amortise the per-round overhead on tiny quick-grid cells,
#: small enough that one slow chunk cannot serialise the tail of a sweep.
MAX_CHUNK_SIZE = 16

#: How many chunks each worker should see on average.  Oversubscription
#: keeps the pool load-balanced when cell costs vary (fault campaigns
#: next to two-parameter sweep cells): a straggler holds back one small
#: chunk, not a worker-sized share of the batch.
CHUNK_OVERSUBSCRIPTION = 4


def adaptive_chunk_size(
    pending: int,
    workers: int,
    max_chunk: int = MAX_CHUNK_SIZE,
    oversubscribe: int = CHUNK_OVERSUBSCRIPTION,
) -> int:
    """Jobs per IPC round (or per distributed lease) for a batch.

    Scales the chunk with batch size so tiny cells amortise per-round
    overhead, while keeping at least ``workers * oversubscribe`` chunks in
    flight for load balancing.  Always at least 1.
    """
    if pending <= 0:
        return 1
    slots = max(1, workers) * max(1, oversubscribe)
    return max(1, min(max_chunk, math.ceil(pending / slots)))


def adaptive_chunks(
    jobs: Sequence[ExperimentJob],
    workers: int,
    max_chunk: int = MAX_CHUNK_SIZE,
    oversubscribe: int = CHUNK_OVERSUBSCRIPTION,
) -> Iterator[List[ExperimentJob]]:
    """Split a batch into adaptively sized contiguous chunks.

    Shared between the ``process`` backend (one chunk per pool submit) and
    the distributed coordinator (one chunk per worker lease).
    """
    size = adaptive_chunk_size(len(jobs), workers, max_chunk, oversubscribe)
    for start in range(0, len(jobs), size):
        yield list(jobs[start : start + size])


def _execute_job_chunk(
    executor: JobExecutor, jobs: Sequence[ExperimentJob]
) -> List[Metrics]:
    """Run one chunk of cells in order (module-level: must pickle)."""
    return [executor(job) for job in jobs]


class RunnerBackend:
    """How a batch of pending (uncached) cells is executed.

    A backend maps ``(executor, pending, workers)`` to an iterable of
    ``(job, metrics)`` pairs, yielding each cell's result as it completes so
    the runner can record and cache it immediately (an interrupted sweep
    keeps everything that finished).  Pairs may arrive in any order.
    Every pending cell reaches the backend, single-cell batches included.
    """

    #: What ``RunnerStats`` and the ``engine-stats:`` line report.
    name: str = "abstract"

    def execute(
        self,
        executor: JobExecutor,
        pending: Sequence[ExperimentJob],
        workers: int,
    ) -> Iterable[Tuple[ExperimentJob, Metrics]]:
        raise NotImplementedError


class SerialBackend(RunnerBackend):
    """Execute every cell in the calling process, in enumeration order."""

    name = "serial"

    def execute(
        self,
        executor: JobExecutor,
        pending: Sequence[ExperimentJob],
        workers: int,
    ) -> Iterable[Tuple[ExperimentJob, Metrics]]:
        for job in pending:
            yield job, executor(job)


class ProcessBackend(RunnerBackend):
    """Fan cells out over worker processes (true CPU parallelism; jobs and
    metrics cross the process boundary by pickling).

    Cells are shipped in adaptive chunks -- one pickled round trip per
    :func:`adaptive_chunks` slice rather than per cell -- so quick-grid
    batches of tiny cells are not dominated by IPC overhead.  Results
    still stream back per chunk as each completes, preserving the
    record-as-you-go contract for interrupted sweeps.
    """

    name = "process"

    def execute(
        self,
        executor: JobExecutor,
        pending: Sequence[ExperimentJob],
        workers: int,
    ) -> Iterable[Tuple[ExperimentJob, Metrics]]:
        if len(pending) == 1:
            # One cell is not worth the pool spin-up.
            yield pending[0], executor(pending[0])
            return
        workers = max(1, min(workers, len(pending)))
        chunks = list(adaptive_chunks(pending, workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_execute_job_chunk, executor, chunk): chunk
                for chunk in chunks
            }
            for future in as_completed(futures):
                chunk = futures[future]
                for job, metrics in zip(chunk, future.result()):
                    yield job, metrics


#: The backends a runner builds by name; anything else is passed as an
#: instance (the distributed backend needs its coordinator URL).
_LOCAL_BACKENDS: Dict[str, Callable[[], RunnerBackend]] = {
    "serial": SerialBackend,
    "process": ProcessBackend,
}


class ExperimentRunner:
    """Executes job batches through a runner backend, with caching."""

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        use_cache: Optional[bool] = None,
        executor: JobExecutor = execute_job,
        backend: Union[None, str, RunnerBackend] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        if jobs < 1:
            raise ExperimentError("an ExperimentRunner needs at least one worker")
        self.jobs = jobs
        #: ``backend=None`` picks serial for one worker, a process pool for
        #: more.
        if backend is None:
            backend = "serial" if jobs == 1 else "process"
        if isinstance(backend, str):
            try:
                backend = _LOCAL_BACKENDS[backend]()
            except KeyError:
                raise ExperimentError(
                    f"unknown runner backend {backend!r}: name 'serial' or "
                    "'process', or pass a RunnerBackend instance"
                ) from None
        self.backend = backend
        #: ``cache=`` accepts a ready-made store; otherwise caching defaults
        #: to "on exactly when a cache directory was given" (``use_cache=True``
        #: enables it at the default location).
        if cache is not None:
            self.cache: Optional[ResultCache] = cache
        else:
            if use_cache is None:
                use_cache = cache_dir is not None
            self.cache = (
                ResultCache(cache_dir if cache_dir is not None else default_cache_dir())
                if use_cache
                else None
            )
        self._executor = executor
        self._memo: Dict[ExperimentJob, Metrics] = {}
        self.stats = RunnerStats()

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #

    def run_jobs(
        self, jobs: Sequence[ExperimentJob]
    ) -> Dict[ExperimentJob, Metrics]:
        """Execute a batch and return ``{job: metrics}`` for every cell.

        Duplicate jobs within the batch are simulated once.  Cells already
        known to the in-memory memo or the on-disk cache are not re-run;
        only the remaining cells are executed, in parallel when the runner
        was built with ``jobs > 1``.
        """
        pending: List[ExperimentJob] = []
        seen: set = set()
        with self.stats.phase("cache-hit"):
            fresh: List[ExperimentJob] = []
            for job in jobs:
                if job in self._memo or job in seen:
                    self.stats.memoized += 1
                    continue
                seen.add(job)
                fresh.append(job)
            if self.cache is not None and fresh:
                # One batched probe for the whole batch, not one per cell.
                hits = self.cache.load_many(fresh)
                for job in fresh:
                    metrics = hits.get(job)
                    if metrics is not None:
                        self._memo[job] = metrics
                        self.stats.cached += 1
                    else:
                        pending.append(job)
            else:
                pending = fresh

        # Results are recorded (and written to the cache) as each chunk of
        # cells completes, not after the whole batch: an interrupted or
        # partially failed sweep keeps everything that finished (the
        # ``finally`` stores the in-flight chunk), so the re-run only
        # executes the remaining cells.  Cells executed in this process
        # (the serial backend) that build the same machine share one
        # simulation; pool and remote workers never see the sharing.
        if pending:
            with self.stats.phase("execute"), shared_simulations(pending) as sharing:
                chunk: List[Tuple[ExperimentJob, Metrics]] = []
                try:
                    for job, metrics in self.backend.execute(
                        self._executor, pending, self.jobs
                    ):
                        self._memo[job] = metrics
                        self.stats.executed += 1
                        if self.cache is not None:
                            chunk.append((job, metrics))
                            if len(chunk) >= MAX_CHUNK_SIZE:
                                self.cache.store_many(chunk)
                                chunk = []
                finally:
                    self.stats.shared += sharing.served
                    if self.cache is not None:
                        if chunk:
                            self.cache.store_many(chunk)
                        self.cache.flush()

        return {job: self._memo[job] for job in jobs}

    def run_job(self, job: ExperimentJob) -> Metrics:
        """Execute (or recall) a single cell."""
        return self.run_jobs([job])[job]


# ---------------------------------------------------------------------- #
# Default runner plumbing
# ---------------------------------------------------------------------- #

#: The runner used by experiment entry points when none is passed explicitly.
#: Serial and uncached by default, so plain library calls keep their
#: historical behaviour; the CLI and the benchmark harness install richer
#: runners via :func:`set_default_runner` / :func:`using_runner`.
_default_runner: Optional[ExperimentRunner] = None


def default_runner() -> ExperimentRunner:
    """The currently installed default runner (serial/uncached fallback)."""
    global _default_runner
    if _default_runner is None:
        _default_runner = ExperimentRunner(jobs=1, use_cache=False)
    return _default_runner


def set_default_runner(runner: Optional[ExperimentRunner]) -> None:
    """Install (or, with ``None``, reset) the process-wide default runner."""
    global _default_runner
    _default_runner = runner


@contextmanager
def using_runner(runner: ExperimentRunner) -> Iterator[ExperimentRunner]:
    """Temporarily install ``runner`` as the default within a ``with`` block."""
    previous = _default_runner
    set_default_runner(runner)
    try:
        yield runner
    finally:
        set_default_runner(previous)
