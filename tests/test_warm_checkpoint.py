"""The functional-warm checkpoint restores exactly what warming computes.

``Simulator._functional_warm`` keeps the packed hierarchy state of the last
two pristine functional warms, keyed by the hierarchy config and the warm
calls; a run with a matching key restores it instead of replaying the
warm.  These tests hold the checkpoint to the warm it replaces: for one
machine of every Simulator-driven job kind, a run restored from the
checkpoint returns a ``SimulationResult`` equal field by field to a run
that warmed the hierarchy itself.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from dataclasses import replace

import pytest

from repro.mem.hierarchy import MemoryHierarchy
from repro.sim import simulator as simulator_module
from repro.sim.fuzz.cells import scenario_machine
from repro.sim.fuzz.generate import FuzzScenario
from repro.sim.fuzz.oracles import observe_run
from repro.sim.jobs import ExperimentJob, simulate_cell, simulation_identity
from repro.sim.settings import ExperimentSettings
from repro.sim.simulator import Simulator
from repro.sim.specs import EXPERIMENTS, experiment

SETTINGS = ExperimentSettings.quick()

#: Simulator-driven job kinds, each with the spec that enumerates it.
KINDS = {
    "figure5": "figure5",
    "figure6": "figure6",
    "pab": "pab",
    "ablation": "ablation",
    "degradation": "degradation",
    "churn": "consolidation-churn",
    "fleet": "fleet",
    "fuzz": "fuzz",
}


def _first_job(kind: str):
    spec = experiment(KINDS[kind])
    return next(
        job for job in spec.enumerate_jobs(spec.request(SETTINGS)) if job.kind == kind
    )


def _machine(kind: str, workload: str, variant: str, seed: int):
    """The machine of one cell, built from its simulation identity."""
    job = ExperimentJob(kind, workload, variant, seed, settings=SETTINGS)
    return simulation_identity(job).machine()


def _simulate(job):
    """Build and run one cell's machine, returning its SimulationResult."""
    if job.kind == "fuzz":
        scenario = FuzzScenario.from_json(str(job.param("scenario")))
        options = replace(
            SETTINGS.options(),
            total_cycles=scenario.total_cycles,
            warmup_cycles=scenario.warmup_cycles,
        )
        machine = scenario_machine(SETTINGS, scenario)
        return observe_run(machine, options, timeline=scenario.timeline)[0]
    return simulate_cell(job)


def _clear_checkpoints() -> None:
    with simulator_module._warm_checkpoints_lock:
        simulator_module._warm_checkpoints.clear()


def _checkpoint_keys():
    with simulator_module._warm_checkpoints_lock:
        return list(simulator_module._warm_checkpoints)


@pytest.fixture
def restores(monkeypatch):
    """Record every checkpoint restore (the hierarchies restored into)."""
    restored = []
    original = MemoryHierarchy.restore

    def recording_restore(hierarchy, snapshot):
        restored.append(hierarchy)
        original(hierarchy, snapshot)

    monkeypatch.setattr(MemoryHierarchy, "restore", recording_restore)
    _clear_checkpoints()
    yield restored
    _clear_checkpoints()


def _assert_same_result(restored, fresh) -> None:
    for field in dataclasses.fields(fresh):
        assert getattr(restored, field.name) == getattr(fresh, field.name), field.name
    for name in ("hierarchy_stats", "quantum_stats", "timeline_stats"):
        assert list(getattr(restored, name).items()) == list(getattr(fresh, name).items())


def test_every_simulator_job_kind_is_covered():
    kinds = set()
    for name in EXPERIMENTS:
        spec = experiment(name)
        kinds.update(job.kind for job in spec.enumerate_jobs(spec.request(SETTINGS)))
    assert kinds - {"faults", "table1", "table2"} == set(KINDS)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_restored_run_equals_a_freshly_warmed_run(kind, restores):
    job = _first_job(kind)
    fresh = _simulate(job)
    assert restores == [] and len(_checkpoint_keys()) == 1
    restored = _simulate(job)
    assert len(restores) == 1
    _assert_same_result(restored, fresh)
    assert fresh.hierarchy_stats and fresh.quantum_stats


def test_seeds_of_one_shape_share_the_checkpoint(restores):
    first = _machine("figure5", "apache", "reunion", 0)
    Simulator(first, SETTINGS.options()).run()
    other_seed = _machine("figure5", "apache", "reunion", 1)
    restored = Simulator(other_seed, SETTINGS.options()).run()
    assert restores == [other_seed.hierarchy]
    _clear_checkpoints()
    fresh = Simulator(_machine("figure5", "apache", "reunion", 1), SETTINGS.options()).run()
    assert restores == [other_seed.hierarchy]
    _assert_same_result(restored, fresh)


def test_a_touched_hierarchy_bypasses_the_checkpoint(restores):
    Simulator(_machine("figure5", "apache", "reunion", 0), SETTINGS.options()).run()
    keys = _checkpoint_keys()
    touched = _machine("figure5", "apache", "reunion", 0)
    touched.hierarchy.load(0, 0x4000)
    assert not touched.hierarchy.is_pristine()
    Simulator(touched, SETTINGS.options()).run()
    # Neither restored from nor stored into the checkpoint.
    assert restores == []
    assert _checkpoint_keys() == keys


def test_the_checkpoint_keeps_the_two_most_recent_shapes(restores):
    shapes = {
        "a": lambda: _machine("figure5", "apache", "reunion", 0),
        "b": lambda: _machine("figure5", "apache", "no-dmr", 0),
        "c": lambda: _machine("figure5", "pmake", "reunion", 0),
    }
    hits = []
    for name in ("a", "b", "a", "c", "b", "c", "a"):
        before = len(restores)
        Simulator(shapes[name](), SETTINGS.options()).run()
        hits.append(len(restores) > before)
        assert len(_checkpoint_keys()) <= simulator_module._WARM_CHECKPOINT_SLOTS == 2
    # "a" is refreshed by its hit, so "c" evicts "b", then "b" evicts "a".
    assert hits == [False, False, True, False, False, True, False]


def test_concurrent_same_shape_runs_agree(restores):
    def build(seed):
        return _machine("figure6", "apache", "mmm-tp", seed)

    expected = {seed: Simulator(build(seed), SETTINGS.options()).run() for seed in (0, 1)}
    _clear_checkpoints()
    results = {}
    errors = []

    def run(index, seed):
        try:
            results[index] = Simulator(build(seed), SETTINGS.options()).run()
        except Exception as error:  # surfaced by the assertion below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=run, args=(index, index % 2)) for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for index in range(4):
        _assert_same_result(results[index], expected[index % 2])
