"""Tests for the declarative experiment-spec API (:mod:`repro.sim.specs`).

Four contracts:

* **registry completeness** -- every spec declares a ``MetricSchema``, and
  the registry drives both ``run_all_experiments`` and the CLI;
* **frames from cells** -- a spec's frame is the fold of its run's raw
  cells: derived and aggregated columns recompute from ``SpecRun.results``;
* **backend determinism** -- the ``serial`` and ``process`` backends
  produce byte-identical results for one spec of each family (simulation,
  measurement, faults);
* **uniform rendering** -- ``to_table``/``to_json`` are generated from the
  spec's ``MetricSchema``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis.metrics import normalize_to
from repro.common.stats import confidence_interval_95
from repro.errors import ExperimentError
from repro.faults.cells import assemble_campaign_reports
from repro.sim.experiments import ExperimentSettings
from repro.sim.frames import MetricColumn, MetricSchema
from repro.sim.runner import ExperimentRunner
from repro.sim.specs import (
    EXPERIMENTS,
    ExperimentSpec,
    SpecRequest,
    experiment,
    register_experiment,
)

QUICK = ExperimentSettings.quick().with_workloads(("apache",))


def fresh(jobs: int = 1, backend=None) -> ExperimentRunner:
    return ExperimentRunner(jobs=jobs, use_cache=False, backend=backend)


class TestRegistry:
    def test_spec_without_a_schema_is_rejected(self):
        with pytest.raises(TypeError, match="schema"):
            ExperimentSpec(name="no-schema", title="no schema")

    def test_registry_covers_exactly_the_paper_experiments(self):
        assert set(EXPERIMENTS) >= {
            "figure5", "figure6", "pab", "table1", "table2", "single-os",
            "ablation", "faults",
        }

    def test_duplicate_registration_is_rejected(self):
        with pytest.raises(ExperimentError):
            register_experiment(EXPERIMENTS["figure5"])

    def test_unknown_experiment_lookup(self):
        with pytest.raises(ExperimentError, match="registered"):
            experiment("figure7")


class TestRequestResolution:
    def test_workload_limit_applies_only_without_explicit_workloads(self):
        spec = EXPERIMENTS["ablation"]
        wide = ExperimentSettings.quick()  # two workloads; limit is two
        assert spec.request(wide).settings.workloads == wide.workloads
        six = ExperimentSettings()
        assert len(spec.request(six).settings.workloads) == 2
        assert (
            spec.request(six, explicit_workloads=True).settings.workloads
            == six.workloads
        )

    def test_single_seed_specs_keep_only_the_first_seed(self):
        spec = EXPERIMENTS["table1"]
        request = spec.request(QUICK.with_seeds((7, 8, 9)))
        assert request.settings.seeds == (7,)
        for job in spec.enumerate_jobs(request):
            assert job.seed == 7

    def test_options_reach_the_request(self):
        request = EXPERIMENTS["faults"].request(QUICK, sweep_rates=(0.5, 1.0))
        assert request.option("sweep_rates") == (0.5, 1.0)
        assert request.option("all_configurations", False) is False
        # Explicit None falls back to the default too.
        assert SpecRequest(settings=QUICK, options={"x": None}).option("x", 1) == 1

    @pytest.mark.parametrize(
        "name,options,settings_field",
        [
            ("table1", {"transitions_to_measure": 2}, "switch_transitions"),
            ("faults", {"trials": 3}, "fault_trials_per_site"),
            (
                "degradation",
                {"degradation_failed_cores": (0, 2)},
                "degradation_failed_cores",
            ),
            ("figure5", {"bogus": 1}, None),
        ],
    )
    def test_other_keywords_are_refused_naming_the_settings_field(
        self, name, options, settings_field
    ):
        # Only a spec's own request options reach it; a value with a settings
        # field is set there, never passed beside the settings.
        with pytest.raises(ExperimentError, match=name) as refusal:
            EXPERIMENTS[name].run(QUICK, runner=fresh(), **options)
        message = str(refusal.value)
        assert repr(next(iter(options))) in message
        if settings_field is None:
            assert "ExperimentSettings" not in message
        else:
            assert f"ExperimentSettings.{settings_field}" in message


class TestFramesMatchRawCells:
    """A spec's frame recomputes from the raw cells of the same run."""

    def test_single_os_overhead_derives_from_the_table_cells(self):
        run = EXPERIMENTS["single-os"].execute(QUICK, runner=fresh())
        cells = {job.kind: run.results[job] for job in run.jobs}
        switch = cells["table1"]["enter_dmr_cycles"] + cells["table1"]["leave_dmr_cycles"]
        round_trip = cells["table2"]["user_cycles"] + cells["table2"]["os_cycles"]
        (row,) = run.frame().rows
        assert row["workload"] == "apache"
        assert row["switch_cycles"] == switch
        assert row["round_trip_cycles"] == round_trip
        assert row["overhead_percent"] == pytest.approx(
            switch / (switch + round_trip) * 100.0
        )

    def test_faults_coverage_matches_the_campaign_reports(self):
        run = EXPERIMENTS["faults"].execute(
            replace(ExperimentSettings(), seeds=(0, 1), fault_trials_per_site=4),
            runner=fresh(),
        )
        frame = run.frame()
        merged, per_seed = assemble_campaign_reports(run.jobs, run.results)
        assert frame.axis_values("configuration") == tuple(merged)
        for configuration, report in merged.items():
            assert frame.value("trials", configuration=configuration) == report.total
            cell = frame.value("coverage", configuration=configuration)
            assert cell == confidence_interval_95(
                per_seed[(configuration, seed)].coverage for seed in (0, 1)
            )
            # Equal per-seed shares: the across-seed mean equals the merged
            # report's ratio.
            assert cell.mean == pytest.approx(report.coverage)

    def test_ablation_default_restriction(self):
        # Without an explicit workload choice the spec's workload_limit
        # keeps the ablation to the first two workloads.
        three = ExperimentSettings.quick().with_workloads(("apache", "pmake", "oltp"))
        frame = EXPERIMENTS["ablation"].run(three, runner=fresh())
        assert frame.axis_values("workload") == ("apache", "pmake")


@pytest.mark.slow
class TestBackendDeterminism:
    """serial == process, byte for byte, one spec per family."""

    #: One spec per family: simulation, measurement, faults.
    NAMES = ("faults", "figure5", "table2")

    @pytest.mark.parametrize("name", NAMES)
    def test_backends_agree(self, name):
        spec = EXPERIMENTS[name]
        settings = QUICK.with_seeds((0, 1)) if spec.multi_seed else QUICK
        settings = replace(settings, fault_trials_per_site=4)
        documents = {}
        for backend in ("serial", "process"):
            result = spec.run(settings, runner=fresh(jobs=2, backend=backend))
            documents[backend] = json.dumps(spec.to_json(result), sort_keys=True)
        assert documents["serial"] == documents["process"]


class TestUniformRendering:
    def test_to_table_is_generated_from_the_schema_views(self):
        frame = EXPERIMENTS["figure5"].run(QUICK, runner=fresh())
        rendered = frame.to_table()
        # Both schema views render, in order, with the paper's titles.
        assert rendered.index("Figure 5(a)") < rendered.index("Figure 5(b)")
        assert "apache" in rendered
        # Figure 5(a) prints reunion's IPC normalised to no-dmr-2x.
        normalized = normalize_to(
            {
                configuration: frame.mean_of(
                    "user_ipc", workload="apache", configuration=configuration
                )
                for configuration in frame.axis_values("configuration")
            },
            "no-dmr-2x",
        )["reunion"]
        figure5a = rendered[: rendered.index("Figure 5(b)")]
        assert f"{normalized:.3f}" in figure5a

    def test_to_json_is_serializable_and_tagged(self):
        spec = EXPERIMENTS["figure5"]
        result = spec.run(QUICK, runner=fresh())
        document = spec.to_json(result)
        assert document["experiment"] == "figure5"
        assert document["family"] == "simulation"
        parsed = json.loads(json.dumps(document))
        assert parsed["result"]["rows"][0]["workload"] == "apache"


class TestCustomSpecIntegration:
    def test_registered_spec_joins_run_all_frames(self, tmp_path):
        from repro.sim.experiments import run_all_experiments, run_all_spec_names
        from repro.sim.jobs import ExperimentJob

        spec = ExperimentSpec(
            name="spec-test-extra",
            title="test extra",
            enumerate_jobs=lambda request: [
                ExperimentJob(
                    kind="figure5", workload="apache", variant="no-dmr", seed=seed,
                    settings=request.settings.cell_settings(),
                )
                for seed in request.settings.seeds
            ],
            schema=lambda request: MetricSchema(
                keys=("workload",),
                metrics=(MetricColumn("user_ipc", unit="instr/cycle"),),
            ),
        )
        register_experiment(spec)
        try:
            everything = run_all_experiments(
                QUICK,
                runner=ExperimentRunner(jobs=1, cache_dir=tmp_path),
                names=run_all_spec_names(("switching", "ablation", "faults")),
            )
            frame = everything.frame("spec-test-extra")
            assert frame.axis_values("workload") == ("apache",)
            assert frame.value("user_ipc", workload="apache").mean > 0
            assert frame.to_table() in everything.render()
            assert "test extra" in everything.render()
        finally:
            del EXPERIMENTS["spec-test-extra"]
