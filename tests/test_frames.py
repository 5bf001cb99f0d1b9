"""Tests for the schema-driven results layer (:mod:`repro.sim.frames`).

Four contracts:

* **assembly** -- the generic fold groups samples per key tuple and applies
  each metric column's aggregation rule (``mean_ci``/``mean``/``sum``/
  ``last``/``derive``), merging partial samples;
* **serialization** -- ``to_json`` -> ``from_json`` round trips
  byte-identically, and ``to_csv`` matches a golden rendering;
* **schema/grid consistency** -- every registered spec declares a
  ``MetricSchema`` whose key axes, with the seed, are the grid ``repro
  list`` reads off the spec's cells;
* **diffing** -- identical runs diff clean, perturbed metrics are flagged,
  and the ``repro diff`` CLI exits non-zero on drift.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.common.stats import ConfidenceInterval, confidence_interval_95
from repro.config.presets import paper_system_config
from repro.errors import ExperimentError
from repro.faults.campaign import FaultInjectionCampaign
from repro.sim.experiments import ExperimentSettings, collect_frames
from repro.sim.frames import (
    FRAME_SCHEMA_VERSION,
    FrameView,
    MetricColumn,
    MetricSchema,
    ResultFrame,
    diff_documents,
    diff_frames,
    document_frames,
    frames_document,
    frames_to_csv,
)
from repro.sim.runner import ExperimentRunner
from repro.sim.specs import EXPERIMENTS

QUICK = ExperimentSettings.quick().with_workloads(("apache",))


def unit_frame() -> ResultFrame:
    schema = MetricSchema(
        keys=("workload", "config"),
        metrics=(
            MetricColumn("ipc", unit="instr/cycle"),
            MetricColumn("cycles", dtype="int", aggregate="sum"),
            MetricColumn("note", dtype="str", aggregate="last"),
        ),
    )
    samples = [
        (("apache", "a"), {"ipc": 1.0, "cycles": 10, "note": "x"}),
        (("apache", "a"), {"ipc": 3.0, "cycles": 5, "note": "y"}),
        (("apache", "b"), {"ipc": 2.0, "cycles": 7, "note": "z"}),
    ]
    return ResultFrame.assemble(schema, samples, name="unit", title="unit frame")


class TestAssembly:
    def test_aggregation_rules(self):
        frame = unit_frame()
        cell = frame.value("ipc", workload="apache", config="a")
        assert isinstance(cell, ConfidenceInterval)
        assert cell.mean == 2.0 and cell.count == 2
        assert frame.value("cycles", workload="apache", config="a") == 15
        assert frame.value("note", workload="apache", config="a") == "y"  # last
        single = frame.value("ipc", workload="apache", config="b")
        assert single.count == 1 and single.half_width == 0.0

    def test_row_order_is_first_seen_sample_order(self):
        frame = unit_frame()
        assert [frame.key_of(row) for row in frame.rows] == [
            ("apache", "a"),
            ("apache", "b"),
        ]
        assert frame.axis_values("config") == ("a", "b")

    def test_partial_samples_merge_and_derive(self):
        schema = MetricSchema(
            keys=("w",),
            metrics=(
                MetricColumn("left", aggregate="last"),
                MetricColumn("right", aggregate="last"),
                MetricColumn(
                    "total",
                    aggregate="derive",
                    derive=lambda row: row["left"] + row["right"],
                ),
            ),
        )
        frame = ResultFrame.assemble(
            schema,
            [(("x",), {"left": 2.0}), (("x",), {"right": 3.0})],
            name="merge",
        )
        (row,) = frame.rows
        assert row["total"] == 5.0

    def test_key_arity_mismatch_is_rejected(self):
        schema = MetricSchema(keys=("a", "b"), metrics=(MetricColumn("m"),))
        with pytest.raises(ExperimentError, match="does not match schema keys"):
            ResultFrame.assemble(schema, [(("only-one",), {"m": 1.0})], name="bad")

    def test_value_rejects_unknown_metric_with_experiment_error(self):
        with pytest.raises(ExperimentError, match="no metric column"):
            unit_frame().value("ipcs", workload="apache", config="a")

    def test_schema_validation(self):
        with pytest.raises(ExperimentError, match="both key and metric"):
            MetricSchema(keys=("m",), metrics=(MetricColumn("m"),))
        with pytest.raises(ExperimentError, match="unknown aggregate"):
            MetricColumn("m", aggregate="median")
        with pytest.raises(ExperimentError, match="unknown metrics"):
            MetricSchema(
                keys=("k",),
                metrics=(MetricColumn("m"),),
                views=(FrameView(title="t", metrics=("nope",)),),
            )


class TestPivotRendering:
    def test_missing_baseline_is_announced_not_silently_raw(self):
        schema = MetricSchema(
            keys=("w", "c"),
            metrics=(MetricColumn("m"),),
            views=(
                FrameView(
                    title="normalised view", metrics=("m",), pivot="c",
                    normalize_to="base",
                ),
            ),
        )
        samples = [(("x", "base"), {"m": 2.0}), (("x", "other"), {"m": 4.0})]
        frame = ResultFrame.assemble(schema, samples, name="p")
        assert "2.000" in frame.to_table()  # 4.0 / 2.0 baseline
        assert "NOT normalised" not in frame.to_table()
        # Without the baseline pivot value, raw numbers must not pose as
        # normalised ratios: the title says so.
        restricted = ResultFrame.assemble(
            schema, [(("x", "other"), {"m": 4.0})], name="p"
        )
        rendered = restricted.to_table()
        assert "NOT normalised" in rendered and "base" in rendered
        assert "x *" in rendered  # the raw row itself is marked

    def test_missing_metric_renders_dash_not_zero(self):
        schema = MetricSchema(
            keys=("w", "c"),
            metrics=(MetricColumn("m", aggregate="last"),),
            views=(FrameView(title="t", metrics=("m",), pivot="c"),),
        )
        frame = ResultFrame.assemble(
            schema, [(("x", "a"), {"m": 1.5}), (("x", "b"), {})], name="p"
        )
        lines = frame.to_table().splitlines()
        assert lines[-1].split()[-1] == "-"


class TestSerialization:
    def test_json_round_trip_is_byte_identical(self):
        frame = unit_frame()
        document = frame.to_json()
        rebuilt = ResultFrame.from_json(json.loads(json.dumps(document)))
        assert json.dumps(document, sort_keys=True) == json.dumps(
            rebuilt.to_json(), sort_keys=True
        )
        # And the round-tripped frame is queryable like the original.
        assert rebuilt.value("cycles", workload="apache", config="a") == 15

    def test_simulated_frame_round_trips(self, tmp_path):
        frame = EXPERIMENTS["figure5"].run(
            QUICK, runner=ExperimentRunner(jobs=1, cache_dir=tmp_path)
        )
        document = json.loads(json.dumps(frame.to_json(), sort_keys=True))
        rebuilt = ResultFrame.from_json(document)
        assert json.dumps(frame.to_json(), sort_keys=True) == json.dumps(
            rebuilt.to_json(), sort_keys=True
        )

    def test_unsupported_version_is_rejected(self):
        payload = unit_frame().to_json()
        payload["frame_version"] = FRAME_SCHEMA_VERSION + 1
        with pytest.raises(ExperimentError, match="unsupported frame version"):
            ResultFrame.from_json(payload)

    def test_csv_golden(self):
        assert unit_frame().to_csv() == (
            "workload,config,ipc_mean,ipc_ci95,ipc_n,cycles,note\n"
            "apache,a,2.0,12.706,2,15,y\n"
            "apache,b,2.0,0.0,1,7,z\n"
        )

    def test_tidy_csv_is_uniform_across_frames(self):
        text = frames_to_csv({"unit": unit_frame()})
        lines = text.splitlines()
        assert lines[0] == "experiment,key,metric,unit,aggregate,value,ci95,n"
        assert "unit,workload=apache;config=a,ipc,instr/cycle,mean_ci,2.0,12.706,2" in lines
        assert "unit,workload=apache;config=a,cycles,,sum,15,," in lines


class TestSchemaGridConsistency:
    def test_every_registered_spec_declares_a_schema(self):
        for name, spec in EXPERIMENTS.items():
            assert isinstance(spec.metric_schema(spec.request(QUICK)), MetricSchema), name

    def test_schema_keys_are_grid_axes(self, capsys):
        # The grid `repro list` prints is each spec's schema keys plus the
        # seed, read off the cells its default request enumerates.
        assert main(["list", "--json"]) == 0
        listed = {
            entry["name"]: entry
            for entry in json.loads(capsys.readouterr().out)["specs"]
        }
        for name, spec in EXPERIMENTS.items():
            request = spec.request()
            schema = spec.metric_schema(request)
            entry = listed[name]
            assert entry["cells"] == len(spec.enumerate_jobs(request)) > 0, name
            assert set(entry["axes"]) == {*schema.keys, "seed"}, name
            assert entry["axes"]["seed"] == list(request.settings.seeds), name
            for key in schema.keys:
                values = entry["axes"][key]
                assert values and None not in values, (name, key)
            # Seeds are aggregated over, never a frame axis.
            assert "seed" not in schema.keys, name

    def test_faults_sweep_gains_the_rate_axis(self):
        spec = EXPERIMENTS["faults"]
        request = spec.request(
            replace(QUICK, fault_trials_per_site=2), sweep_rates=(0.5, 1.0)
        )
        schema = spec.metric_schema(request)
        assert schema.keys == ("rate", "configuration")
        jobs = spec.enumerate_jobs(request)
        assert {job.param("fault_rate") for job in jobs} == {0.5, 1.0}


class TestFramesAgreeWithIndependentRuns:
    """A frame equals what a separate run of the same cells reports."""

    def test_single_os_overhead_derives_from_the_table_frames(self, tmp_path):
        settings = replace(
            ExperimentSettings(),
            workloads=("apache",),
            seeds=(0,),
            switch_transitions=2,
            switch_warmup_cycles=2_000,
            frequency_phases=1,
            frequency_phase_scale=0.02,
        )
        table1 = EXPERIMENTS["table1"].run(
            settings, runner=ExperimentRunner(jobs=1, cache_dir=tmp_path),
            explicit_workloads=True,
        )
        table2 = EXPERIMENTS["table2"].run(
            settings, runner=ExperimentRunner(jobs=1, cache_dir=tmp_path),
            explicit_workloads=True,
        )
        # single-os is the table1 + table2 cells: all of them come from cache.
        warm = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        frame = EXPERIMENTS["single-os"].run(
            settings, runner=warm, explicit_workloads=True
        )
        assert warm.stats.executed == 0
        switch = table1.value("enter_dmr_cycles", workload="apache") + table1.value(
            "leave_dmr_cycles", workload="apache"
        )
        round_trip = table2.value("user_cycles", workload="apache") + table2.value(
            "os_cycles", workload="apache"
        )
        (row,) = frame.rows
        assert row["switch_cycles"] == switch
        assert row["round_trip_cycles"] == round_trip
        assert row["overhead_percent"] == pytest.approx(
            switch / (switch + round_trip) * 100.0
        )

    def test_faults_frame_matches_the_inline_campaign(self):
        seeds = (0, 1)
        frame = EXPERIMENTS["faults"].run(
            replace(ExperimentSettings(), seeds=seeds, fault_trials_per_site=4),
            runner=ExperimentRunner(jobs=1, use_cache=False),
        )
        inline = {
            seed: {
                report.configuration: report
                for report in FaultInjectionCampaign(
                    config=paper_system_config(), seed=seed
                ).run(trials_per_site=4)
            }
            for seed in seeds
        }
        assert frame.axis_values("configuration") == tuple(inline[0])
        for configuration in frame.axis_values("configuration"):
            reports = [inline[seed][configuration] for seed in seeds]
            assert frame.value("trials", configuration=configuration) == sum(
                report.total for report in reports
            )
            assert frame.value(
                "coverage", configuration=configuration
            ) == confidence_interval_95(report.coverage for report in reports)
            assert frame.value(
                "silent_corruption_rate", configuration=configuration
            ) == confidence_interval_95(
                report.silent_corruption_rate for report in reports
            )


class TestDiff:
    def test_identical_frames_diff_clean(self):
        assert diff_frames(unit_frame(), unit_frame()) == []

    def test_value_drift_is_flagged_and_tolerance_respected(self):
        baseline, current = unit_frame(), unit_frame()
        cell = current.rows[0]["ipc"]
        current.rows[0]["ipc"] = ConfidenceInterval(
            mean=cell.mean * 1.001, half_width=cell.half_width, count=cell.count
        )
        drifts = diff_frames(baseline, current)
        assert len(drifts) == 1
        assert drifts[0].kind == "value-drift" and "ipc" in drifts[0].detail
        # A drift of 1e-12 relative passes: it is below REL_TOL (1e-9).
        current.rows[0]["ipc"] = ConfidenceInterval(
            mean=cell.mean * (1 + 1e-12), half_width=cell.half_width, count=cell.count
        )
        assert current.rows[0]["ipc"] != cell
        assert diff_frames(baseline, current) == []

    def test_missing_and_extra_rows_and_frames(self):
        baseline, current = unit_frame(), unit_frame()
        current.rows.pop()
        kinds = {d.kind for d in diff_frames(baseline, current)}
        assert kinds == {"missing-row"}
        documents = diff_documents({"a": unit_frame()}, {"b": unit_frame()})
        assert {d.kind for d in documents} == {"missing-frame", "extra-frame"}

    def test_documents_keep_the_version_1_fidelity_field(self):
        # There is one timing model, but version-1 documents carry
        # "fidelity": "accurate" in every frame and in the settings mapping;
        # the field stays until the next frame_version bump.
        frame = unit_frame()
        assert frame.to_json()["fidelity"] == "accurate"
        restored = ResultFrame.from_json(json.loads(json.dumps(frame.to_json())))
        assert restored.to_json() == frame.to_json()
        document = frames_document({"unit": frame}, settings={"seeds": [0]})
        assert document["settings"] == {"seeds": [0], "fidelity": "accurate"}
        assert frames_document({"unit": frame})["settings"] is None

    def test_document_round_trip_diffs_clean(self, tmp_path):
        frames = collect_frames(
            QUICK, ["figure5", "pab"], runner=ExperimentRunner(jobs=1, cache_dir=tmp_path)
        )
        document = json.loads(
            json.dumps(frames_document(frames, settings=None), sort_keys=True)
        )
        assert diff_documents(document_frames(document), frames) == []


class TestCliExportAndDiff:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        return tmp_path

    BASELINE_ARGV = [
        "run-all", "--quick", "--workloads", "apache",
        "--skip-switching", "--skip-ablation", "--skip-faults", "--json",
    ]

    def test_diff_passes_on_identical_run_and_flags_drift(self, capsys, tmp_path):
        assert main(self.BASELINE_ARGV) == 0
        document = json.loads(capsys.readouterr().out)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(document), encoding="utf-8")

        # Identical re-run (warm cache): diff is clean and exits 0.
        assert main(["diff", str(baseline)]) == 0
        assert "results match" in capsys.readouterr().out

        # Injected metric drift: non-zero exit naming the drifted cell.
        drifted = document["frames"]["figure5"]["rows"][0]
        drifted["user_ipc"]["mean"] *= 1.5
        baseline.write_text(json.dumps(document), encoding="utf-8")
        assert main(["diff", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "value-drift" in out and "user_ipc" in out

    def test_diff_rejects_garbage(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{\"format\": \"something-else\"}", encoding="utf-8")
        assert main(["diff", str(bogus)]) == 2
        assert main(["diff", str(tmp_path / "missing.json")]) == 2
        # Structurally malformed frames are bad input (2), not drift (1).
        malformed = tmp_path / "malformed.json"
        malformed.write_text(
            json.dumps(
                {"format": "repro-results", "frames": {"figure5": {"frame_version": 1}}}
            ),
            encoding="utf-8",
        )
        assert main(["diff", str(malformed)]) == 2

    def test_export_rejects_unknown_experiments_cleanly(self, capsys):
        assert main(["export", "--experiments", "nope"]) == 2

    def test_diff_fails_when_a_baseline_experiment_vanished(self, capsys, tmp_path):
        # A baseline frame whose spec no longer exists is drift (the gate
        # must not silently pass a vanished experiment), not a skip.
        document = frames_document({"retired-experiment": unit_frame()}, settings=None)
        baseline = tmp_path / "vanished.json"
        baseline.write_text(json.dumps(document), encoding="utf-8")
        assert main(["diff", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "missing-frame" in out and "retired-experiment" in out

    def test_diff_rejects_malformed_settings(self, capsys, tmp_path):
        document = frames_document({}, settings=None)
        document["settings"] = ["not", "an", "object"]
        baseline = tmp_path / "badsettings.json"
        baseline.write_text(json.dumps(document), encoding="utf-8")
        assert main(["diff", str(baseline)]) == 2
        assert "malformed settings" in capsys.readouterr().err

    def test_export_csv_parses_and_matches_frames(self, capsys):
        import csv as csv_module

        assert main(
            ["export", "--quick", "--workloads", "apache", "--format", "csv",
             "--experiments", "figure5", "pab"]
        ) == 0
        rows = list(csv_module.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == [
            "experiment", "key", "metric", "unit", "aggregate", "value", "ci95", "n",
        ]
        experiments = {row[0] for row in rows[1:]}
        assert experiments == {"figure5", "pab"}

    def test_export_single_experiment_is_wide_csv(self, capsys):
        assert main(
            ["export", "--quick", "--workloads", "apache", "--format", "csv",
             "--experiments", "figure5"]
        ) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("workload,configuration,user_ipc_mean")

    def test_export_json_is_a_valid_baseline(self, capsys, tmp_path):
        assert main(
            ["export", "--quick", "--workloads", "apache", "--format", "json",
             "--experiments", "figure5"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        frames = document_frames(document)
        assert set(frames) == {"figure5"}
        baseline = tmp_path / "export.json"
        baseline.write_text(json.dumps(document), encoding="utf-8")
        assert main(["diff", str(baseline)]) == 0