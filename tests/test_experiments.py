"""Smoke tests for the paper's experiments, read off their result frames.

These use :meth:`ExperimentSettings.quick` (a heavily scaled machine and two
workloads) so they exercise the full experiment plumbing -- machine
construction, simulation, frame assembly, rendering -- in a few seconds.
The full-scale tables are printed by ``repro run-all``, and
``benchmarks/bench_paper.py`` checks their shapes at benchmark scale.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.metrics import normalize_to
from repro.errors import ExperimentError
from repro.sim.experiments import (
    FIGURE5_CONFIGS,
    FIGURE6_CONFIGS,
    ExperimentSettings,
)
from repro.sim.frames import ResultFrame
from repro.sim.specs import experiment


def normalized(
    frame: ResultFrame, metric: str, baseline: str, workload: str,
    axis: str = "configuration",
):
    """One workload's ``metric`` means across ``axis``, normalised to ``baseline``."""
    return normalize_to(
        {
            value: frame.mean_of(metric, workload=workload, **{axis: value})
            for value in frame.axis_values(axis)
        },
        baseline,
    )


class TestSettings:
    def test_defaults_cover_all_six_workloads(self):
        assert len(ExperimentSettings().workloads) == 6

    def test_footprint_scale_is_inverse_of_capacity_scale(self):
        assert ExperimentSettings(capacity_scale=8).footprint_scale == pytest.approx(1 / 8)

    def test_transition_scale_preserves_amortisation(self):
        settings = ExperimentSettings(timeslice_cycles=30_000)
        assert settings.transition_cost_scale() == pytest.approx(0.01)

    def test_with_workloads(self):
        assert ExperimentSettings().with_workloads(["apache"]).workloads == ("apache",)


class TestFigure5(object):
    @pytest.fixture(scope="class")
    def frame(self):
        return experiment("figure5").run(ExperimentSettings.quick())

    def test_rows_and_configs(self, frame):
        assert frame.axis_values("workload") == ExperimentSettings.quick().workloads
        assert set(frame.axis_values("configuration")) == set(FIGURE5_CONFIGS)
        for workload in frame.axis_values("workload"):
            for configuration in FIGURE5_CONFIGS:
                keys = dict(workload=workload, configuration=configuration)
                assert frame.value("user_ipc", **keys) is not None
                assert frame.value("throughput", **keys) is not None

    def test_reunion_loses_ipc_and_throughput(self, frame):
        for workload in frame.axis_values("workload"):
            normalized_ipc = normalized(frame, "user_ipc", "no-dmr-2x", workload)
            normalized_tput = normalized(frame, "throughput", "no-dmr-2x", workload)
            assert normalized_ipc["reunion"] < 1.0
            assert normalized_tput["reunion"] < normalized_tput["no-dmr-2x"]
            assert normalized_tput["no-dmr"] < 1.0

    def test_formatting(self, frame):
        assert "Figure 5(a)" in frame.to_table()
        assert "Figure 5(b)" in frame.to_table()
        with pytest.raises(ExperimentError):
            frame.value("user_ipc", workload="unknown", configuration="reunion")


class TestFigure6:
    @pytest.fixture(scope="class")
    def frame(self):
        return experiment("figure6").run(ExperimentSettings.quick())

    def test_mixed_mode_improves_the_performance_vm(self, frame):
        for workload in frame.axis_values("workload"):
            performance = normalized(frame, "performance_ipc", "dmr-base", workload)
            assert performance["mmm-ipc"] > 1.0
            throughput = normalized(frame, "performance_throughput", "dmr-base", workload)
            assert throughput["mmm-tp"] > 1.0
            overall = normalized(frame, "overall_throughput", "dmr-base", workload)
            assert overall["mmm-tp"] > 1.0

    def test_reliable_vm_is_not_devastated(self, frame):
        for workload in frame.axis_values("workload"):
            reliable = normalized(frame, "reliable_ipc", "dmr-base", workload)
            assert reliable["mmm-ipc"] > 0.7
            assert reliable["mmm-tp"] > 0.7

    def test_formatting_and_lookup(self, frame):
        assert "Figure 6(a)" in frame.to_table()
        assert "Figure 6(b)" in frame.to_table()
        first = ExperimentSettings.quick().workloads[0]
        assert {
            row["configuration"]
            for row in frame.select(workload=first)
            if row["overall_throughput"] is not None
        } == set(FIGURE6_CONFIGS)


class TestSwitchOverheads:
    @pytest.fixture(scope="class")
    def frame(self):
        # The full-size (paper) configuration is the point of Table 1.
        return experiment("table1").run(
            replace(
                ExperimentSettings(),
                workloads=("apache",),
                switch_transitions=3,
                switch_warmup_cycles=3_000,
            )
        )

    def test_leave_is_much_more_expensive_than_enter(self, frame):
        enter = frame.value("enter_dmr_cycles", workload="apache")
        leave = frame.value("leave_dmr_cycles", workload="apache")
        assert leave > enter
        # Dominated by the 8192-line L2 flush.
        assert leave > 8_192

    def test_enter_is_a_couple_of_thousand_cycles(self, frame):
        assert 1_000 <= frame.value("enter_dmr_cycles", workload="apache") <= 6_000

    def test_round_trip_and_formatting(self, frame):
        round_trips = [
            row["enter_dmr_cycles"] + row["leave_dmr_cycles"] for row in frame.rows
        ]
        assert sum(round_trips) / len(round_trips) > 0
        assert "Table 1" in frame.to_table()


class TestSwitchFrequencyAndSingleOs:
    SETTINGS = replace(
        ExperimentSettings(),
        workloads=("apache", "pgbench"),
        switch_transitions=2,
        switch_warmup_cycles=2_000,
        frequency_phases=1,
        frequency_phase_scale=0.02,
    )

    @pytest.fixture(scope="class")
    def frequency(self):
        return experiment("table2").run(self.SETTINGS)

    def test_pgbench_has_much_longer_user_phases_than_apache(self, frequency):
        assert frequency.value("user_cycles", workload="pgbench") > 2 * frequency.value(
            "user_cycles", workload="apache"
        )

    def test_single_os_overhead_is_small_and_apache_is_worst(self, frequency):
        study = experiment("single-os").run(self.SETTINGS)
        # The study folds the same Table 2 cells the frequency frame holds.
        for workload in ("apache", "pgbench"):
            assert study.value("round_trip_cycles", workload=workload) == (
                frequency.value("user_cycles", workload=workload)
                + frequency.value("os_cycles", workload=workload)
            )
        apache = study.value("overhead_percent", workload="apache")
        assert apache < 25.0
        assert apache > study.value("overhead_percent", workload="pgbench")
        assert "overhead" in study.to_table()


class TestPabLatencyStudy:
    def test_serial_lookup_slows_only_the_performance_vm(self):
        settings = ExperimentSettings.quick().with_workloads(("apache",))
        frame = experiment("pab").run(settings)
        (workload,) = frame.axis_values("workload")
        assert frame.value("performance_ipc", workload=workload, lookup="serial") <= (
            frame.value("performance_ipc", workload=workload, lookup="parallel")
        )
        reliable = normalized(frame, "reliable_ipc", "parallel", workload, axis="lookup")
        # The reliable VM's IPC moves by under 8% (it never uses the PAB).
        assert abs(reliable["serial"] - 1) * 100 < 8.0
        assert "serial" in frame.to_table().lower()


class TestWindowAblation:
    def test_bigger_window_and_store_buffer_recover_ipc(self):
        settings = ExperimentSettings.quick().with_workloads(("apache",))
        frame = experiment("ablation").run(settings)
        (workload,) = frame.axis_values("workload")
        ipc = normalized(frame, "user_ipc", "window128-sc", workload, axis="variant")
        assert ipc["window256-tso"] > ipc["window128-sc"]
        assert "window256-tso" in frame.to_table()
