"""Cells that build the same machine share one simulation per batch.

Several of the paper's studies reuse a baseline machine: the ablation's
``window128-sc`` point and the degradation sweep's ``fail0`` point are
Figure 5's Reunion machine, and the PAB study's ``parallel`` point is
Figure 6's MMM-TP server.  ``simulation_identity`` names what a cell's run
is built from; inside ``shared_simulations`` (entered by
``ExperimentRunner.run_jobs`` around its execute phase) each shared
identity is simulated once and every consumer gets its own copy.  These
tests pin the identity groups, parity with a runner that does not share
(process-pool workers never see the sharing), the saved simulator runs,
the release of shared results and the isolation of the copies.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.sim.jobs as jobs_module
from repro.config.system import ConsistencyModel
from repro.errors import ExperimentError
from repro.sim.fleet.scheduler import BURST_SLOTS
from repro.sim.jobs import (
    ExperimentJob,
    SimulationIdentity,
    _churn_parts,
    execute_job,
    shared_simulations,
    simulate_cell,
    simulation_identity,
)
from repro.sim.runner import ExperimentRunner
from repro.sim.settings import ExperimentSettings
from repro.sim.specs import EXPERIMENTS, experiment
from repro.sim.timeline import Timeline

QUICK = ExperimentSettings.quick()


def spec_jobs(name: str, settings: ExperimentSettings = QUICK):
    spec = experiment(name)
    return spec.enumerate_jobs(spec.request(settings))


def cell(name: str, variant: str, workload: str = "apache", seed: int = 0) -> ExperimentJob:
    """The quick-settings cell of spec ``name`` with the given coordinates."""
    return next(
        job
        for job in spec_jobs(name, QUICK.with_seeds((seed,)))
        if job.variant == variant and job.workload == workload
    )


def quick_batch(seed: int):
    """The ``run-all --quick`` batch on one seed."""
    settings = QUICK.with_seeds((seed,))
    return [job for name in EXPERIMENTS for job in spec_jobs(name, settings)]


class TestIdentity:
    def test_reunion_ablation_and_degradation_baselines_share(self):
        identities = {
            simulation_identity(cell("figure5", "reunion")),
            simulation_identity(cell("ablation", "window128-sc")),
            simulation_identity(cell("degradation", "fail0")),
        }
        assert len(identities) == 1 and None not in identities

    def test_mmm_tp_server_and_parallel_pab_share(self):
        server = simulation_identity(cell("figure6", "mmm-tp"))
        assert server is not None
        assert server == simulation_identity(cell("pab", "parallel"))

    def test_identity_is_hashable_and_built_from_the_run_inputs(self):
        identity = simulation_identity(cell("figure6", "mmm-tp"))
        assert {identity: 1}[identity] == 1
        assert identity.policy == "mmm-tp"
        assert [spec.name for spec in identity.vm_specs] == ["reliable", "performance"]
        assert identity.options == QUICK.options()
        assert identity.timeline is None

    @pytest.mark.parametrize(
        "base, changed",
        [
            pytest.param(("ablation", "window128-sc"), ("ablation", "window256-sc"), id="window-entries"),
            pytest.param(("ablation", "window256-sc"), ("ablation", "window256-tso"), id="consistency"),
            pytest.param(("pab", "parallel"), ("pab", "serial"), id="pab-lookup"),
            pytest.param(("figure5", "reunion"), ("figure5", "no-dmr"), id="policy"),
            pytest.param(("figure5", "no-dmr"), ("figure5", "no-dmr-2x"), id="variant"),
            pytest.param(("figure6", "dmr-base"), ("figure6", "mmm-ipc"), id="figure6-variant"),
        ],
    )
    def test_a_different_machine_is_a_different_identity(self, base, changed):
        assert simulation_identity(cell(*base)) != simulation_identity(cell(*changed))

    def test_every_single_input_change_is_a_new_identity(self):
        base = cell("degradation", "fail2")
        settings = base.settings
        timeline = Timeline.from_json(str(base.param("timeline")))
        moved = replace(timeline.events[0], cycle=timeline.events[0].cycle + 1)
        shifted = Timeline.of(moved, *timeline.events[1:]).to_json()
        variants = {
            "seed": replace(base, seed=1),
            # phase_scale reaches the machine only through the VmSpec.
            "vm-spec": replace(base, settings=replace(settings, phase_scale=0.004)),
            "total-cycles": replace(base, settings=replace(settings, total_cycles=11_000)),
            "timeline-event": replace(
                base,
                params=tuple(
                    (name, shifted if name == "timeline" else value)
                    for name, value in base.params
                ),
            ),
        }
        identities = {name: simulation_identity(job) for name, job in variants.items()}
        identities["base"] = simulation_identity(base)
        assert len(set(identities.values())) == len(identities), identities.keys()

    def test_window_and_consistency_reach_the_identity_config(self):
        tso = simulation_identity(cell("ablation", "window256-tso"))
        assert tso.config.core.window_entries == 256
        assert tso.config.core.consistency is ConsistencyModel.TSO

    @pytest.mark.parametrize("name", ["table1", "table2", "faults", "fuzz"])
    def test_cells_without_a_simulate_cell_run_have_no_identity(self, name):
        jobs = spec_jobs(name)
        assert jobs and all(simulation_identity(job) is None for job in jobs)

    def test_a_fleet_cell_runs_the_churn_server_with_the_burst_slots(self):
        jobs = spec_jobs("fleet")
        assert len(jobs) == 8
        for job in jobs:
            config, vm_specs, policy = _churn_parts(job.settings, job.workload, BURST_SLOTS)
            assert simulation_identity(job) == SimulationIdentity(
                config=config,
                vm_specs=vm_specs,
                policy=policy,
                seed=job.seed,
                options=job.settings.options(),
                timeline=job.param("timeline"),
            )

    def test_default_fleet_cells_with_one_workload_seed_and_timeline_share(self):
        # Seed 0 of the default sweep: four diurnal and eight flash-crowd
        # machines fall into four groups of one workload and timeline.
        jobs = spec_jobs("fleet", ExperimentSettings().with_seeds((0,)))
        assert len(jobs) == 32
        assert len({simulation_identity(job) for job in jobs}) == 24


# ===================================================================== #
# Batches: parity, saved runs, retention, isolation
# ===================================================================== #


@pytest.fixture(scope="module")
def serial_batches():
    """The quick batch on seeds 0 and 3 through a serial (sharing) runner,
    with ``Simulator.run`` counted."""
    calls = {"runs": 0}
    original = jobs_module.Simulator.run

    def counted(simulator):
        calls["runs"] += 1
        return original(simulator)

    outcome = {}
    jobs_module.Simulator.run = counted
    try:
        for seed in (0, 3):
            calls["runs"] = 0
            runner = ExperimentRunner(jobs=1, backend="serial")
            results = runner.run_jobs(quick_batch(seed))
            outcome[seed] = (results, runner.stats, calls["runs"])
    finally:
        jobs_module.Simulator.run = original
    return outcome


@pytest.mark.parametrize("seed", [0, 3])
def test_serial_sharing_matches_a_thread_runner_that_does_not_share(seed, serial_batches):
    shared_results, stats, _ = serial_batches[seed]
    pooled = ExperimentRunner(jobs=2)
    assert pooled.backend.name == "process"
    assert pooled.run_jobs(quick_batch(seed)) == shared_results
    assert stats.shared == 6
    assert pooled.stats.shared == 0


def test_the_quick_batch_simulates_each_machine_once(serial_batches):
    _, stats, runs = serial_batches[0]
    assert stats.executed == 55 and stats.memoized == 4
    assert runs == 33
    assert stats.shared == 6
    assert stats.to_dict()["shared"] == 6


def _reunion_batch():
    """Three consumers of Figure 5's Reunion run, then a cell that shares nothing."""
    return [
        cell("figure5", "reunion"),
        cell("ablation", "window128-sc"),
        cell("degradation", "fail0"),
        cell("figure5", "no-dmr"),
    ]


def test_a_shared_result_is_released_after_its_last_consumer():
    retained = []

    def recording(job):
        metrics = execute_job(job)
        retained.append(jobs_module._SHARING.get().retained())
        return metrics

    runner = ExperimentRunner(jobs=1, backend="serial", executor=recording)
    runner.run_jobs(_reunion_batch())
    # The Reunion run is held for the ablation and degradation consumers,
    # dropped when the last one has it; the no-dmr cell never enters.
    assert retained == [1, 1, 0, 0]
    assert runner.stats.shared == 2
    assert jobs_module._SHARING.get() is None


def test_nothing_is_retained_after_a_batch_even_when_a_cell_raises():
    seen = []

    def failing(job):
        seen.append(jobs_module._SHARING.get())
        metrics = execute_job(job)
        if job.kind == "ablation":
            raise RuntimeError("cell failed after taking its shared run")
        return metrics

    runner = ExperimentRunner(jobs=1, backend="serial", executor=failing)
    with pytest.raises(RuntimeError, match="cell failed"):
        runner.run_jobs(_reunion_batch())
    (sharing,) = set(seen)
    assert sharing.retained() == 0
    assert jobs_module._SHARING.get() is None
    # The cells that completed are recorded; the next batch starts clean.
    assert runner.stats.executed == 1
    clean = ExperimentRunner(jobs=1, backend="serial")
    clean.run_jobs(_reunion_batch())
    assert clean.stats.shared == 2


def test_a_malformed_cell_raises_its_own_error_when_it_runs():
    batch = _reunion_batch()[:2] + [replace(cell("figure5", "reunion"), variant="bogus")]
    runner = ExperimentRunner(jobs=1, backend="serial")
    with pytest.raises(ExperimentError, match="unknown Figure 5 configuration 'bogus'"):
        runner.run_jobs(batch)
    assert runner.stats.executed == 2 and runner.stats.shared == 1


def test_every_consumer_gets_its_own_copy():
    consumers = _reunion_batch()[:3]
    reference = simulate_cell(consumers[0])
    with shared_simulations(consumers) as sharing:
        first = simulate_cell(consumers[0])
        first.hierarchy_stats.clear()
        first.vm_results.clear()
        second = simulate_cell(consumers[1])
        assert second == reference
        second.vm("baseline").vcpus.clear()
        second.quantum_stats.clear()
        third = simulate_cell(consumers[2])
        assert third == reference
        assert sharing.served == 2 and sharing.retained() == 0
    assert len({id(first), id(second), id(third)}) == 3
