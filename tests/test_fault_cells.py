"""Tests for the cell-shaped fault-injection campaign.

The campaign's engine contract mirrors the simulation cells':

* **identity** -- a cell is fully described by (configuration, fault site,
  seed, trials chunk, fault rate), and chunking shapes cells without
  changing the assembled report;
* **determinism** -- serial, process-pool and warm-cache runs assemble
  byte-identical coverage reports, and trial outcomes are independent of
  the order cells execute in;
* **cell format** -- a cell's metrics are its outcome counts, which the
  on-disk result cache stores as they are.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.config.presets import paper_system_config
from repro.errors import FaultInjectionError
from repro.faults.campaign import (
    DEFAULT_CONFIGURATIONS,
    TRIAL_SITES,
    FaultInjectionCampaign,
    trial_rng,
)
from repro.faults.cells import (
    assemble_campaign_reports,
    execute_fault_cell,
    fault_campaign_jobs,
)
from repro.faults.outcomes import CoverageReport, FaultOutcome
from repro.sim.runner import ExperimentRunner
from repro.sim.settings import ExperimentSettings
from repro.sim.specs import experiment


def small_jobs(**overrides):
    defaults = dict(trials_per_site=10, seeds=(0,), trials_per_cell=4)
    defaults.update(overrides)
    return fault_campaign_jobs(**defaults)


def fresh_runner(jobs: int = 1, **kwargs) -> ExperimentRunner:
    kwargs.setdefault("use_cache", False)
    return ExperimentRunner(jobs=jobs, **kwargs)


def run_campaign(seeds, trials, **options):
    """Run the ``faults`` spec on ``seeds`` with ``trials`` per site, keeping
    the raw trial cells."""
    settings = replace(ExperimentSettings(), seeds=seeds, fault_trials_per_site=trials)
    return experiment("faults").execute(settings, runner=fresh_runner(), **options)


def coverage_reports(jobs, results):
    """One merged coverage report per configuration, in enumeration order."""
    return assemble_campaign_reports(jobs, results)[0]


def serialized_reports(reports) -> str:
    return json.dumps(
        {
            name: {outcome.name: count for outcome, count in report.outcome_histogram().items()}
            for name, report in reports.items()
        }
    )


class TestEnumeration:
    def test_one_cell_per_configuration_site_seed_chunk(self):
        jobs = small_jobs(seeds=(0, 1))
        # 3 configurations x 4 sites x 2 seeds x ceil(10/4)=3 chunks.
        assert len(jobs) == 3 * 4 * 2 * 3
        assert {job.kind for job in jobs} == {"faults"}
        assert {job.workload for job in jobs} == set(TRIAL_SITES)
        assert {job.variant for job in jobs} == {c.name for c in DEFAULT_CONFIGURATIONS}

    def test_chunks_partition_the_trials(self):
        jobs = small_jobs()
        per_family = {}
        for job in jobs:
            key = (job.variant, job.workload)
            per_family.setdefault(key, []).append(
                (job.param("first_trial"), job.param("trials"))
            )
        for chunks in per_family.values():
            chunks.sort()
            assert sum(count for _, count in chunks) == 10
            expected_start = 0
            for first, count in chunks:
                assert first == expected_start
                expected_start += count

    def test_jobs_are_picklable_and_cache_keyed(self):
        import pickle

        job = small_jobs()[0]
        assert pickle.loads(pickle.dumps(job)) == job
        assert job.cache_key() == small_jobs()[0].cache_key()
        # The fault rate is part of the cell identity.
        other = small_jobs(fault_rate=0.5)[0]
        assert other.cache_key() != job.cache_key()

    def test_input_validation(self):
        with pytest.raises(FaultInjectionError):
            fault_campaign_jobs(trials_per_site=0)
        with pytest.raises(FaultInjectionError):
            fault_campaign_jobs(trials_per_site=1, trials_per_cell=0)
        with pytest.raises(FaultInjectionError):
            fault_campaign_jobs(trials_per_site=1, seeds=())

    def test_duplicate_seeds_do_not_duplicate_cells(self):
        assert small_jobs(seeds=(0, 0, 1)) == small_jobs(seeds=(0, 1))


class TestDeterminism:
    def test_serial_and_pool_reports_are_byte_identical(self):
        jobs = small_jobs(seeds=(0, 1))
        serial = coverage_reports(jobs, fresh_runner(1).run_jobs(jobs))
        pooled = coverage_reports(jobs, fresh_runner(4).run_jobs(jobs))
        assert serialized_reports(serial) == serialized_reports(pooled)

    def test_outcomes_independent_of_cell_execution_order(self):
        jobs = small_jobs()
        forward = fresh_runner(1).run_jobs(jobs)
        backward = fresh_runner(1).run_jobs(list(reversed(jobs)))
        for job in jobs:
            assert forward[job] == backward[job]

    def test_chunking_does_not_change_the_assembled_report(self):
        fine = small_jobs(trials_per_cell=2)
        coarse = small_jobs(trials_per_cell=10)
        assert len(fine) > len(coarse)
        fine_reports = coverage_reports(fine, fresh_runner(1).run_jobs(fine))
        coarse_reports = coverage_reports(
            coarse, fresh_runner(1).run_jobs(coarse)
        )
        assert serialized_reports(fine_reports) == serialized_reports(coarse_reports)

    def test_trial_rng_depends_only_on_trial_identity(self):
        a = trial_rng(3, "mmm", "store-reliable", 7)
        b = trial_rng(3, "mmm", "store-reliable", 7)
        assert a.randint(0, 1 << 30) == b.randint(0, 1 << 30)
        c = trial_rng(3, "mmm", "store-reliable", 8)
        assert a.seed != c.seed

    def test_warm_cache_executes_zero_cells(self, tmp_path):
        jobs = small_jobs()
        cold = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        cold_reports = coverage_reports(jobs, cold.run_jobs(jobs))
        assert cold.stats.executed == len(jobs)

        warm = ExperimentRunner(jobs=2, cache_dir=tmp_path)
        warm_reports = coverage_reports(jobs, warm.run_jobs(jobs))
        assert warm.stats.executed == 0
        assert warm.stats.cached == len(jobs)
        assert serialized_reports(cold_reports) == serialized_reports(warm_reports)


#: The quick campaign's per-configuration (coverage, silent-corruption
#: rate), at the full fault rate and at scale 0.5 with the extended
#: configurations, recorded when cells still returned serialized trial
#: records.
QUICK_COVERAGE = {
    "always-dmr": (1.0, 0.0),
    "mmm": (1.0, 0.0),
    "naive-mode-switch": (0.5, 0.5),
}
QUICK_HALF_RATE_COVERAGE = {
    "always-dmr": (1.0, 0.0),
    "mmm": (1.0, 0.0),
    "naive-mode-switch": (0.85, 0.15),
    "dmr-plus-pab": (1.0, 0.0),
}

#: The half-rate campaign's outcome counts, recorded alike.
QUICK_HALF_RATE_HISTOGRAMS = {
    "always-dmr": {"MASKED": 11, "DETECTED_DMR": 9},
    "mmm": {"MASKED": 10, "DETECTED_PAB": 4, "DETECTED_TRANSITION": 2,
            "CONTAINED_TO_PERFORMANCE_DOMAIN": 4},
    "naive-mode-switch": {"MASKED": 10, "CONTAINED_TO_PERFORMANCE_DOMAIN": 7,
                          "SILENT_CORRUPTION": 3},
    "dmr-plus-pab": {"MASKED": 9, "DETECTED_DMR": 11},
}


def coverage_of(reports):
    return {
        name: (report.coverage, report.silent_corruption_rate)
        for name, report in reports.items()
    }


class TestCellFormat:
    def test_cell_metrics_are_outcome_counts_summing_to_its_trials(self):
        for job in small_jobs(seeds=(0, 1), fault_rate=0.5):
            metrics = execute_fault_cell(job)
            assert set(metrics) <= {outcome.name for outcome in FaultOutcome}
            assert all(type(count) is int and count > 0 for count in metrics.values())
            assert sum(metrics.values()) == job.param("trials")

    def test_quick_campaign_coverage_is_unchanged(self):
        run = experiment("faults").execute(
            ExperimentSettings.quick(), runner=fresh_runner()
        )
        assert coverage_of(assemble_campaign_reports(run.jobs, run.results)[0]) == (
            QUICK_COVERAGE
        )

    def test_quick_half_rate_outcomes_are_unchanged(self):
        run = experiment("faults").execute(
            ExperimentSettings.quick(),
            runner=fresh_runner(),
            sweep_rates=(0.5,),
            all_configurations=True,
        )
        merged, _ = assemble_campaign_reports(run.jobs, run.results)
        assert coverage_of(merged) == QUICK_HALF_RATE_COVERAGE
        assert {
            name: {outcome.name: count for outcome, count in report.outcome_histogram().items()}
            for name, report in merged.items()
        } == QUICK_HALF_RATE_HISTOGRAMS


class TestSerialization:
    def test_coverage_report_json_round_trip(self):
        # A cell's outcome counts survive the JSON round trip of the result
        # cache and add into the report the inline campaign counts.
        (job,) = [
            job for job in small_jobs(trials_per_cell=10)
            if (job.variant, job.workload) == ("mmm", "privileged-register")
        ]
        report = CoverageReport(configuration="mmm")
        report.add(json.loads(json.dumps(execute_fault_cell(job))))
        campaign = FaultInjectionCampaign(config=paper_system_config(), seed=0)
        inline = CoverageReport(configuration="mmm")
        inline.counts.update(
            campaign.run_trial(DEFAULT_CONFIGURATIONS[1], "privileged-register", index)
            for index in range(10)
        )
        assert report == inline
        assert report.coverage == inline.coverage


class TestFaultSpace:
    def test_unknown_site_is_rejected(self):
        campaign = FaultInjectionCampaign(config=paper_system_config())
        with pytest.raises(FaultInjectionError, match="known sites"):
            campaign.run_trial(DEFAULT_CONFIGURATIONS[0], "bogus-site", 0)

    def test_pab_with_dmr_keeps_full_coverage(self):
        run = run_campaign((0,), trials=10, all_configurations=True)
        assert run.frame().mean_of("coverage", configuration="dmr-plus-pab") == 1.0
        merged, _ = assemble_campaign_reports(run.jobs, run.results)
        assert merged["dmr-plus-pab"].count(FaultOutcome.DETECTED_DMR) > 0

    def test_fault_rate_scales_silent_corruption(self):
        frame = run_campaign(
            (0, 1), trials=20, all_configurations=True, sweep_rates=(0.1, 1.0)
        ).frame()

        def mean(metric, rate, configuration):
            return frame.mean_of(metric, rate=rate, configuration=configuration)

        assert mean("silent_corruption_rate", 0.1, "naive-mode-switch") < mean(
            "silent_corruption_rate", 1.0, "naive-mode-switch"
        )
        # Rate-masked trials never break the protected designs.
        for rate in (0.1, 1.0):
            assert mean("coverage", rate, "mmm") == 1.0
            assert mean("coverage", rate, "dmr-plus-pab") == 1.0

    def test_multi_seed_reports_and_intervals(self):
        run = run_campaign((0, 1, 2), trials=8)
        frame = run.frame()
        merged, per_seed = assemble_campaign_reports(run.jobs, run.results)
        for configuration, report in merged.items():
            assert report.total == 8 * len(TRIAL_SITES) * 3
            assert frame.value("trials", configuration=configuration) == report.total
            assert {
                seed for name, seed in per_seed if name == configuration
            } == {0, 1, 2}
            assert frame.value("coverage", configuration=configuration).count == 3

    def test_inline_campaign_matches_engine_cells(self):
        # The legacy inline driver and the cell-shaped path are two views of
        # the same trial space: same trials, same outcomes.
        campaign = FaultInjectionCampaign(config=paper_system_config(), seed=0)
        inline = {r.configuration: r for r in campaign.run(trials_per_site=10)}
        jobs = small_jobs()
        engine = coverage_reports(jobs, fresh_runner().run_jobs(jobs))
        for name, report in engine.items():
            assert report == inline[name]


class TestAssembly:
    def test_assembly_ignores_non_fault_jobs(self):
        from repro.sim.experiments import figure5_jobs
        from repro.sim.settings import ExperimentSettings

        jobs = small_jobs()
        extra = figure5_jobs(ExperimentSettings.quick().with_workloads(("apache",)))
        results = fresh_runner().run_jobs(jobs)
        padded = dict(results)
        for job in extra:
            padded[job] = {"user_ipc": 0.0, "throughput": 0.0}
        reports = coverage_reports([*jobs, *extra], padded)
        assert set(reports) == {c.name for c in DEFAULT_CONFIGURATIONS}

    def test_seed_assembly_partitions_the_merged_report(self):
        jobs = small_jobs(seeds=(0, 1))
        results = fresh_runner().run_jobs(jobs)
        merged, per_seed = assemble_campaign_reports(jobs, results)
        for name, report in merged.items():
            assert report.total == sum(
                per_seed[(name, seed)].total for seed in (0, 1)
            )
