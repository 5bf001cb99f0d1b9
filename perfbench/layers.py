"""Per-layer timers for the benchmark's traced passes.

:class:`LayerTracer` times calls into each layer's public functions by
replacing them, for the duration of a traced pass, with wrappers installed
on the classes from here.  Nothing in ``repro`` is edited: :meth:`install`
swaps the class attributes in, :meth:`uninstall` puts the originals back and
checks that it did, so untraced passes run the unmodified program.

Layers and the functions timed for them:

* ``sim.simulator`` -- ``Simulator.run`` (one span per simulated machine);
* ``mem.hierarchy`` -- ``MemoryHierarchy.warm``, split into *functional*
  warming (calls before a run's first ``run_quantum``, or outside any run)
  and *rewarm* (calls after it: the VM-switch refill);
* ``cpu.timing`` -- ``CoreTimingModel.run_quantum`` (the execute phase);
* ``core.policies`` -- every concrete ``MappingPolicy.plan_quantum``;
* ``core.transitions`` -- ``ModeTransitionEngine.enter_dmr``/``leave_dmr``;
* ``sim.store`` -- ``ResultCache.load_many``/``store_many``/``flush``;
* ``sim.runner`` -- the cell executor handed to ``ExperimentRunner``, timed
  per job kind (see :meth:`LayerTracer.executor`).

The leaf layers (warm, execute, place, transition) share one nesting
guard: a leaf call made while another leaf call is being timed (a policy
delegating to its base class, say) is not timed again, so leaf times never
overlap and their sum inside ``Simulator.run`` cannot exceed the run's.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.core.policies import MappingPolicy
from repro.core.transitions import ModeTransitionEngine
from repro.cpu.timing import CoreTimingModel
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.simulator import Simulator
from repro.sim.store import ResultCache

_clock = time.perf_counter

#: Hierarchy counters that count an L1 hit of a warming touch (the coherent
#: core's and the DMR mute's).
_L1_HIT_COUNTERS = ("l1d.hits", "mute.l1d.hits")


def _concrete_policies() -> List[type]:
    """Every loaded ``MappingPolicy`` subclass defining its own ``plan_quantum``."""
    found, stack = [], [MappingPolicy]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls is not MappingPolicy and "plan_quantum" in cls.__dict__:
            found.append(cls)
    return found


def _l1_hits(hierarchy: MemoryHierarchy) -> float:
    merged = hierarchy.merged_stats()
    return sum(merged.get(name) for name in _L1_HIT_COUNTERS)


class _RunSpan:
    """Bookkeeping of one ``Simulator.run`` in progress."""

    __slots__ = ("leaf_s", "executed")

    def __init__(self) -> None:
        #: Leaf-layer seconds spent inside this run.
        self.leaf_s = 0.0
        #: Whether the run has reached its first ``run_quantum``.
        self.executed = False


class LayerTracer:
    """Accumulates per-layer host time and work counts while installed."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[type, str, Callable]] = []
        self._runs: List[_RunSpan] = []
        self._leaf_depth = 0

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Put the timing wrappers in place."""
        if self._patches:
            raise RuntimeError("layer tracer is already installed")
        self._patch(Simulator, "run", self._wrap_run)
        self._patch(MemoryHierarchy, "warm", self._wrap_warm)
        self._patch(CoreTimingModel, "run_quantum", self._wrap_run_quantum)
        for policy in _concrete_policies():
            self._patch(policy, "plan_quantum", self._leaf("core.place"))
        for name in ("enter_dmr", "leave_dmr"):
            self._patch(ModeTransitionEngine, name, self._leaf("core.transition"))
        self._patch(ResultCache, "load_many", self._wrap_load_many)
        self._patch(ResultCache, "store_many", self._timed("store.store_many"))
        self._patch(ResultCache, "flush", self._timed("store.flush"))

    def uninstall(self) -> None:
        """Restore every original and verify no wrapper is left behind."""
        while self._patches:
            cls, name, original = self._patches.pop()
            setattr(cls, name, original)
        left = self.leftover_wrappers()
        if left:
            raise RuntimeError(f"timing wrappers still installed: {left}")

    @staticmethod
    def leftover_wrappers() -> List[str]:
        """Names of patched attributes that are still wrappers (should be none)."""
        classes = [Simulator, MemoryHierarchy, CoreTimingModel, ModeTransitionEngine, ResultCache]
        classes += _concrete_policies()
        return [
            f"{cls.__name__}.{name}"
            for cls in classes
            for name, value in vars(cls).items()
            if getattr(value, "_layer_wrapper", False)
        ]

    def _patch(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[name]
        wrapper = make(original)
        wrapper._layer_wrapper = True
        self._patches.append((cls, name, original))
        setattr(cls, name, wrapper)

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def _charge_leaf(self, key: str, elapsed: float) -> None:
        self.totals[key + "_s"] += elapsed
        self.totals[key + ".calls"] += 1
        if self._runs:
            self._runs[-1].leaf_s += elapsed

    def _leaf(self, key: str) -> Callable[[Callable], Callable]:
        tracer = self

        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if tracer._leaf_depth:
                    return original(*args, **kwargs)
                tracer._leaf_depth += 1
                start = _clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._leaf_depth -= 1
                    tracer._charge_leaf(key, _clock() - start)

            return wrapper

        return make

    def _timed(self, key: str) -> Callable[[Callable], Callable]:
        totals = self.totals

        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                start = _clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    totals[key + "_s"] += _clock() - start
                    totals[key + ".calls"] += 1

            return wrapper

        return make

    def _wrap_run(self, original: Callable) -> Callable:
        tracer = self

        def run(simulator):
            span = _RunSpan()
            tracer._runs.append(span)
            start = _clock()
            try:
                result = original(simulator)
            finally:
                elapsed = _clock() - start
                tracer._runs.pop()
                totals = tracer.totals
                totals["sim.run_s"] += elapsed
                totals["sim.runs"] += 1
                totals["sim.leaf_s"] += span.leaf_s
            stats = result.quantum_stats
            totals["sim.quanta"] += stats.get("quanta", 0)
            totals["sim.plan_reuses"] += stats.get("plan_reuses", 0)
            return result

        return run

    def _wrap_warm(self, original: Callable) -> Callable:
        tracer = self

        def warm(hierarchy, core_id, addresses, secondary_core=None):
            if tracer._leaf_depth:
                return original(hierarchy, core_id, addresses, secondary_core)
            rewarm = bool(tracer._runs) and tracer._runs[-1].executed
            hits_before = _l1_hits(hierarchy) if rewarm else 0.0
            tracer._leaf_depth += 1
            start = _clock()
            try:
                touched = original(hierarchy, core_id, addresses, secondary_core)
            finally:
                tracer._leaf_depth -= 1
                elapsed = _clock() - start
            key = "mem.rewarm" if rewarm else "mem.functional"
            tracer._charge_leaf(key, elapsed)
            tracer.totals["mem.warm.addresses"] += touched
            if rewarm:
                tracer.totals["mem.rewarm.touches"] += touched * (
                    1 if secondary_core is None else 2
                )
                tracer.totals["mem.rewarm.l1_hits"] += _l1_hits(hierarchy) - hits_before
            return touched

        return warm

    def _wrap_run_quantum(self, original: Callable) -> Callable:
        tracer = self

        def run_quantum(model, *args, **kwargs):
            if tracer._runs:
                tracer._runs[-1].executed = True
            if tracer._leaf_depth:
                return original(model, *args, **kwargs)
            tracer._leaf_depth += 1
            start = _clock()
            try:
                result = original(model, *args, **kwargs)
            finally:
                tracer._leaf_depth -= 1
                tracer._charge_leaf("cpu.execute", _clock() - start)
            tracer.totals["cpu.sim_cycles"] += result.cycles
            tracer.totals["cpu.instructions"] += result.instructions
            return result

        return run_quantum

    def _wrap_load_many(self, original: Callable) -> Callable:
        totals = self.totals

        def load_many(cache, jobs):
            start = _clock()
            try:
                hits = original(cache, jobs)
            finally:
                totals["store.load_many_s"] += _clock() - start
            totals["store.probed"] += len(jobs)
            totals["store.returned"] += len(hits)
            return hits

        return load_many

    def executor(self, execute: Callable) -> Callable:
        """Wrap a runner cell executor so each cell is timed by job kind."""
        totals = self.totals

        def timed_execute(job):
            start = _clock()
            try:
                return execute(job)
            finally:
                totals[f"runner.cell.{job.kind}_s"] += _clock() - start
                totals[f"runner.cell.{job.kind}.count"] += 1

        return timed_execute


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    totals: Dict[str, float],
    runner_stats,
    job_kinds,
    live_bytes: int,
    document_s: float,
) -> Dict[str, float]:
    """Fold one traced pass's raw totals into the named per-layer metrics.

    ``runner_stats`` is the pass's ``RunnerStats`` (its unrounded phase
    seconds); ``job_kinds`` fixes the set of ``runner.cell.<kind>`` metrics
    (kinds a pass never ran read 0).
    """
    phases = runner_stats.phase_seconds
    warm_s = totals["mem.functional_s"] + totals["mem.rewarm_s"]
    addresses = totals["mem.warm.addresses"]
    metrics: Dict[str, float] = {
        "runner.enumerate_s": phases.get("enumerate", 0.0),
        "runner.cache_hit_s": phases.get("cache-hit", 0.0),
        "runner.execute_s": phases.get("execute", 0.0),
        "runner.assemble_s": phases.get("assemble", 0.0),
        "runner.cells_executed": runner_stats.executed,
        "runner.cells_cached": runner_stats.cached,
        "runner.cells_memoized": runner_stats.memoized,
    }
    for kind in job_kinds:
        metrics[f"runner.cell.{kind}_s"] = totals[f"runner.cell.{kind}_s"]
        metrics[f"runner.cell.{kind}.count"] = totals[f"runner.cell.{kind}.count"]
    metrics.update(
        {
            "store.load_many_s": totals["store.load_many_s"],
            "store.hit_ratio": _ratio(totals["store.returned"], totals["store.probed"]),
            "store.store_many_s": totals["store.store_many_s"],
            "store.flush_s": totals["store.flush_s"],
            "store.live_bytes": live_bytes,
            "frames.document_s": document_s,
            "sim.run_s": totals["sim.run_s"],
            "sim.runs": totals["sim.runs"],
            "sim.quanta": totals["sim.quanta"],
            "sim.plan_reuse_ratio": _ratio(totals["sim.plan_reuses"], totals["sim.quanta"]),
            "sim.self_s": totals["sim.run_s"] - totals["sim.leaf_s"],
            "mem.warm.functional_s": totals["mem.functional_s"],
            "mem.warm.rewarm_s": totals["mem.rewarm_s"],
            "mem.warm.calls": totals["mem.functional.calls"] + totals["mem.rewarm.calls"],
            "mem.warm.addresses": addresses,
            "mem.warm.ns_per_addr": _ratio(warm_s * 1e9, addresses),
            "mem.rewarm.resident_ratio": _ratio(
                totals["mem.rewarm.l1_hits"], totals["mem.rewarm.touches"]
            ),
            "cpu.execute_s": totals["cpu.execute_s"],
            "cpu.run_quantum.calls": totals["cpu.execute.calls"],
            "cpu.sim_cycles": totals["cpu.sim_cycles"],
            "cpu.instructions": totals["cpu.instructions"],
            "cpu.ns_per_instr": _ratio(totals["cpu.execute_s"] * 1e9, totals["cpu.instructions"]),
            "core.place_s": totals["core.place_s"],
            "core.place.calls": totals["core.place.calls"],
            "core.transition_s": totals["core.transition_s"],
            "core.transitions": totals["core.transition.calls"],
        }
    )
    return metrics
