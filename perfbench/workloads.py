"""The benchmark's three workloads: what set-up prepares and one pass runs.

Every pass runs in this process on the serial backend (no worker pool, no
threads, no sockets) and ends by serialising its canonical results
document, which the caller compares byte for byte across passes.

* ``quick-cold`` -- the ``run-all --quick`` batch (every registered spec)
  simulated into a fresh result store: the cold headline command.
* ``dmr-long`` -- ``figure5`` at the default (non-quick) settings for
  ``apache`` and ``pmake``, no store: single-VM machines, so the execute
  phase dominates and there is no VM-switch rewarm.
* ``warm-rerun`` -- the ``quick-cold`` batch served entirely from a store
  filled during set-up: runner, store and frames do all the work.

The workload seed replaces the settings' seed sweep, so ``--seed n`` runs
the same batches on seed ``n``.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.experiments import collect_frames, run_all_experiments
from repro.sim.frames import ResultFrame, frames_document
from repro.sim.jobs import ExperimentJob, code_fingerprint, execute_job
from repro.sim.runner import ExperimentRunner, ResultCache, RunnerStats
from repro.sim.settings import ExperimentSettings
from repro.sim.specs import EXPERIMENTS, experiment

Executor = Callable[[ExperimentJob], Dict[str, object]]


def _serialise(document: Dict[str, object]) -> bytes:
    """The canonical bytes of a results document (as ``--json`` prints it)."""
    return json.dumps(document, indent=2, sort_keys=True).encode("utf-8")


@dataclass
class PassResult:
    """What one pass produced: its document and how the runner served it."""

    document: bytes
    stats: RunnerStats
    #: Host seconds spent building and serialising the document.
    document_s: float
    cache: Optional[ResultCache]
    #: Store directory to delete once the pass has been inspected.
    scratch: Optional[Path] = None

    def live_bytes(self) -> int:
        """Live record bytes in the pass's result store (0 without one)."""
        if self.cache is None:
            return 0
        return sum(kind.bytes for kind in self.cache.stats().values())


class Workload:
    """One named workload: set-up, timed passes and per-pass checks."""

    name = "abstract"
    why = ""
    #: Spec names whose cells make up one pass.
    spec_names: Sequence[str] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.settings = self.base_settings().with_seeds((seed,))
        self.expected_total = 0
        self.expected_unique = 0
        #: The document every pass must reproduce byte for byte (set by the
        #: first pass, or by set-up when set-up already produced one).
        self.reference: Optional[bytes] = None

    @staticmethod
    def base_settings() -> ExperimentSettings:
        raise NotImplementedError

    def prepare(self) -> None:
        """In-process set-up: enumerate the batch and load lazy state."""
        code_fingerprint()
        batch: List[ExperimentJob] = []
        for name in self.spec_names:
            spec = experiment(name)
            batch += spec.enumerate_jobs(spec.request(self.settings))
        self.expected_total = len(batch)
        self.expected_unique = len(set(batch))

    def run_pass(self, executor: Executor = execute_job) -> PassResult:
        raise NotImplementedError

    def served_as_expected(self, stats: RunnerStats) -> bool:
        """Whether the runner accounted for exactly the enumerated batch."""
        return (
            stats.total == self.expected_total
            and stats.executed == self.expected_unique
            and stats.cached == 0
        )

    def finish_pass(self, result: PassResult) -> None:
        """Release what the pass left behind (outside the timed region)."""
        if result.scratch is not None:
            shutil.rmtree(result.scratch, ignore_errors=True)


def _run_all_document(
    settings: ExperimentSettings, runner: ExperimentRunner
) -> Tuple[Dict[str, ResultFrame], bytes, float]:
    everything = run_all_experiments(settings, runner=runner)
    start = time.perf_counter()
    document = _serialise(everything.to_document())
    return everything.frames, document, time.perf_counter() - start


def _all_frames_have_rows(frames: Dict[str, ResultFrame]) -> bool:
    return bool(frames) and all(frame.rows for frame in frames.values())


class QuickCold(Workload):
    name = "quick-cold"
    why = (
        "run-all --quick on seed --seed (default 0) into a fresh store: the cold "
        "headline command, where execute, functional warm and rewarm all weigh"
    )
    spec_names = tuple(EXPERIMENTS)

    @staticmethod
    def base_settings() -> ExperimentSettings:
        return ExperimentSettings.quick()

    def _cold_pass(self, store: Path, executor: Executor) -> PassResult:
        cache = ResultCache(store)
        runner = ExperimentRunner(jobs=1, backend="serial", cache=cache, executor=executor)
        frames, document, document_s = _run_all_document(self.settings, runner)
        if not _all_frames_have_rows(frames):
            raise RuntimeError("a results frame came back empty")
        return PassResult(document, runner.stats, document_s, cache, scratch=store)

    def run_pass(self, executor: Executor = execute_job) -> PassResult:
        store = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        return self._cold_pass(store, executor)


class WarmRerun(QuickCold):
    name = "warm-rerun"
    why = (
        "the quick-cold batch on seed --seed served wholly from a store filled "
        "at set-up: runner, store and frames work, the simulator does none"
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.store = workdir / "warm-store"

    def prepare(self) -> None:
        super().prepare()
        filled = self._cold_pass(self.store, execute_job)
        if not super().served_as_expected(filled.stats):
            raise RuntimeError(f"filling the store ran {filled.stats.summary()}")
        # The store was filled by simulating every cell: a warm pass must
        # reproduce that document exactly.
        self.reference = filled.document

    def run_pass(self, executor: Executor = execute_job) -> PassResult:
        cache = ResultCache(self.store)
        runner = ExperimentRunner(jobs=1, backend="serial", cache=cache, executor=executor)
        frames, document, document_s = _run_all_document(self.settings, runner)
        if not _all_frames_have_rows(frames):
            raise RuntimeError("a results frame came back empty")
        return PassResult(document, runner.stats, document_s, cache)

    def served_as_expected(self, stats: RunnerStats) -> bool:
        return (
            stats.total == self.expected_total
            and stats.executed == 0
            and stats.cached == self.expected_unique
        )


class DmrLong(Workload):
    name = "dmr-long"
    why = (
        "figure5 at default length, apache and pmake, seed --seed, no store: "
        "single-VM machines never rewarm, so the execute phase dominates"
    )
    spec_names = ("figure5",)

    @staticmethod
    def base_settings() -> ExperimentSettings:
        return ExperimentSettings().with_workloads(("apache", "pmake"))

    def run_pass(self, executor: Executor = execute_job) -> PassResult:
        runner = ExperimentRunner(jobs=1, backend="serial", use_cache=False, executor=executor)
        frames = collect_frames(self.settings, self.spec_names, runner=runner)
        if not _all_frames_have_rows(frames):
            raise RuntimeError("a results frame came back empty")
        start = time.perf_counter()
        document = _serialise(frames_document(frames, settings=asdict(self.settings)))
        return PassResult(document, runner.stats, time.perf_counter() - start, None)


WORKLOADS = {workload.name: workload for workload in (QuickCold, DmrLong, WarmRerun)}
