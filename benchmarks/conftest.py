"""Shared fixtures for the benchmark harness.

``benchmarks/bench_paper.py`` regenerates the paper's tables and figures, one
registered spec per case, and prints each next to the shape the paper reports
so the two can be compared directly.  The harness runner installed below is
the session's default runner, and its in-memory memo serves any cell a later
case shares with an earlier one (the ``single-os`` case reuses the Table 1
and Table 2 cells).

Set ``REPRO_BENCH_QUICK=1`` to run the whole harness on a heavily scaled
configuration with two workloads (useful for smoke-testing the harness
itself; the numbers are then not meaningful).

The experiments run through the experiment engine of
:mod:`repro.sim.runner`.  Set ``REPRO_BENCH_JOBS=N`` to fan the simulation
cells out over a pool of N worker processes, ``REPRO_BENCH_SEEDS=N`` to
widen the seed sweep (default: one seed, so timings stay comparable across
runs), and ``REPRO_BENCH_CACHE=<dir>`` to reuse the on-disk result cache
across harness runs (off by default: a cached cell costs no simulation
time, which would make the recorded timings meaningless).
"""

from __future__ import annotations

import os

import pytest

from repro.sim.experiments import ExperimentSettings
from repro.sim.runner import ExperimentRunner, set_default_runner


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "0") not in ("0", "", "false")


def _engine_runner() -> ExperimentRunner:
    """The runner described by the REPRO_BENCH_* environment variables."""
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")
    cache_dir = os.environ.get("REPRO_BENCH_CACHE") or None
    return ExperimentRunner(jobs=max(1, jobs), cache_dir=cache_dir)


@pytest.fixture(scope="session", autouse=True)
def bench_runner():
    """Install the harness-wide experiment runner as the engine default."""
    runner = _engine_runner()
    set_default_runner(runner)
    yield runner
    set_default_runner(None)


@pytest.fixture(scope="session")
def bench_settings() -> ExperimentSettings:
    """Experiment settings used by every benchmark.

    The seed sweep is pinned to one seed (override with
    ``REPRO_BENCH_SEEDS=N``) rather than inheriting the library's ten-seed
    default: benchmark timings are compared across runs, and silently
    multiplying the simulated cells would invalidate every recorded number.
    """
    seeds = tuple(range(max(1, int(os.environ.get("REPRO_BENCH_SEEDS", "1") or "1"))))
    base = ExperimentSettings.quick() if _quick() else ExperimentSettings()
    return base.with_seeds(seeds)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
