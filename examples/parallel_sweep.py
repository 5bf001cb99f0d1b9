#!/usr/bin/env python3
"""Sweep the whole evaluation through the parallel experiment engine.

Every (experiment, workload, configuration, seed) cell of the paper's
evaluation is a picklable job with a deterministic cache key.  This example
runs a multi-seed Figure 5 + Figure 6 sweep twice through an
:class:`repro.sim.runner.ExperimentRunner`:

1. cold, fanned out over worker processes -- every cell is simulated, and
   the seed sweep is embarrassingly parallel;
2. warm -- the second run executes *zero* simulation jobs, because every
   cell's result is served from the on-disk cache (CRC-framed records in
   segment files under ``.repro-cache/<kind>/segments/``, indexed by a
   per-kind manifest).

Multi-seed runs feed the experiments' 95% confidence intervals, which is
exactly what the cache makes cheap: adding a seed later only simulates the
new cells.

Run with::

    python examples/parallel_sweep.py
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from repro.sim.experiments import ExperimentSettings
from repro.sim.runner import ExperimentRunner
from repro.sim.specs import experiment

#: Three seeds per cell so the confidence intervals have spread to report.
SETTINGS = replace(
    ExperimentSettings.quick().with_workloads(("apache", "oltp")), seeds=(0, 1, 2)
)

CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
#: More than one worker runs the cold sweep on a process pool, like
#: `repro --jobs N`.
WORKERS = min(4, os.cpu_count() or 1)


def sweep(runner: ExperimentRunner) -> None:
    figure5 = experiment("figure5").run(SETTINGS, runner=runner)
    figure6 = experiment("figure6").run(SETTINGS, runner=runner)
    print(figure5.to_table())
    print()
    print(figure6.to_table())


def main() -> None:
    cold = ExperimentRunner(jobs=WORKERS, cache_dir=CACHE_DIR)
    print(
        f"Cold sweep across {WORKERS} workers of the {cold.backend.name!r} "
        f"backend (cache: {CACHE_DIR})..."
    )
    started = time.perf_counter()
    sweep(cold)
    print(f"\ncold: {cold.stats.summary()} in {time.perf_counter() - started:.1f}s")

    print("\nWarm re-run (a fresh runner, same cache directory)...")
    warm = ExperimentRunner(jobs=1, cache_dir=CACHE_DIR)
    started = time.perf_counter()
    sweep(warm)
    print(f"\nwarm: {warm.stats.summary()} in {time.perf_counter() - started:.1f}s")
    assert warm.stats.executed == 0, "a warm cache must not re-simulate anything"


if __name__ == "__main__":
    main()
