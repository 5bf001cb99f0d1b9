"""Self-checks of the benchmark and its tracer.

Run from the repository root (about two minutes: one untraced, one traced
and one profiled ``quick-cold`` pass)::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import LayerTracer  # noqa: E402
from repro.core.policies import MmmTpPolicy  # noqa: E402
from repro.mem.hierarchy import MemoryHierarchy  # noqa: E402
from repro.sim.jobs import registered_job_kinds  # noqa: E402
from repro.sim.simulator import Simulator  # noqa: E402
from workloads import QuickCold  # noqa: E402

#: How far (in percentage points of the pass) a traced layer share may sit
#: from the same layer's share in a cProfile of the same pass.
PROFILE_TOLERANCE_POINTS = 5.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.layer_names()
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_job_kinds_cover_the_registry():
    assert set(run.JOB_KINDS) == set(registered_job_kinds())


def test_uninstall_restores_every_original():
    originals = (Simulator.__dict__["run"], MemoryHierarchy.__dict__["warm"],
                 MmmTpPolicy.__dict__["plan_quantum"])
    tracer = LayerTracer()
    tracer.install()
    try:
        assert "Simulator.run" in LayerTracer.leftover_wrappers()
        assert "MmmTpPolicy.plan_quantum" in LayerTracer.leftover_wrappers()
    finally:
        tracer.uninstall()
    assert LayerTracer.leftover_wrappers() == []
    assert (Simulator.__dict__["run"], MemoryHierarchy.__dict__["warm"],
            MmmTpPolicy.__dict__["plan_quantum"]) == originals


def test_speed_clock_ticks_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedClock() as speed:
        begin = speed.now()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        work = speed.now() - begin
    assert len(speed.probes) > 2
    assert work > 0.0 and speed.seconds(work) > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "quick-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


@pytest.fixture(scope="module")
def quick_cold(tmp_path_factory):
    """One untraced, one traced and one profiled pass of ``quick-cold``."""
    workload = QuickCold(0, tmp_path_factory.mktemp("quick-cold"))
    workload.prepare()
    with run.SpeedClock() as speed:
        bench = run.Bench(workload, seconds=0.0, trace=True, speed=speed)
        bench.one_pass(traced=False)
        bench.one_pass(traced=True)
    profiler = cProfile.Profile()
    profiler.enable()
    result = workload.run_pass()
    profiler.disable()
    workload.finish_pass(result)
    return bench, pstats.Stats(profiler)


def test_traced_document_is_byte_identical(quick_cold):
    bench, _ = quick_cold
    assert bench.failed == 0, bench.problems
    assert len(bench.durations[False]) == len(bench.durations[True]) == 1
    assert LayerTracer.leftover_wrappers() == []


def test_layer_times_nest_inside_their_parents(quick_cold):
    bench, _ = quick_cold
    layers = {name: values[0] for name, values in bench.layer_samples.items()}
    leaves = sum(
        layers[name]
        for name in ("mem.warm.functional_s", "mem.warm.rewarm_s",
                     "cpu.execute_s", "core.place_s", "core.transition_s")
    )
    # Leaf layers timed inside Simulator.run (table1/table2 cells also call
    # run_quantum outside any run, so the in-run part is the tracer's own).
    in_run = bench.tracer.totals["sim.leaf_s"]
    assert 0.0 < in_run <= leaves
    assert in_run <= layers["sim.run_s"]
    assert layers["sim.self_s"] == pytest.approx(layers["sim.run_s"] - in_run)
    cells = sum(layers[f"runner.cell.{kind}_s"] for kind in run.JOB_KINDS)
    assert 0.0 < cells <= layers["runner.execute_s"]
    assert layers["runner.cells_executed"] == sum(
        layers[f"runner.cell.{kind}.count"] for kind in run.JOB_KINDS
    )


def _cumulative(stats: pstats.Stats, filename: str, function: str, caller: str = ""):
    for (path, _, name), (_, _, _, cumtime, callers) in stats.stats.items():
        if path.endswith(filename) and name == function:
            if not caller:
                return cumtime
            return sum(
                timing[3] for (_, _, caller_name), timing in callers.items()
                if caller_name == caller
            )
    raise LookupError(f"{function} not profiled")


def test_layer_shares_agree_with_cprofile(quick_cold):
    bench, stats = quick_cold
    layers = {name: values[0] for name, values in bench.layer_samples.items()}
    traced_total = bench.durations[True][0]
    profiled_total = _cumulative(stats, "workloads.py", "run_pass")
    pairs = {
        "mem.warm.functional_s": _cumulative(
            stats, "simulator.py", "_warm_vm_plan", caller="_functional_warm"),
        "mem.warm.rewarm_s": _cumulative(
            stats, "simulator.py", "_warm_vm_plan", caller="_phase_transition_charge"),
        "cpu.execute_s": _cumulative(stats, "timing.py", "run_quantum"),
    }
    for name, profiled in pairs.items():
        traced_share = 100.0 * layers[name] / traced_total
        profiled_share = 100.0 * profiled / profiled_total
        assert abs(traced_share - profiled_share) <= PROFILE_TOLERANCE_POINTS, (
            name, round(traced_share, 1), round(profiled_share, 1)
        )
