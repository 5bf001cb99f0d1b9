"""Tests for the scenario-fuzzing subsystem: generator, oracles, shrinker.

Four contracts:

* **generation** -- scenarios are valid by construction, a pure function of
  ``(settings, profile, case, seed)``, byte-identical across processes
  (the property that keeps fuzz cells cacheable), and round trip through
  their canonical JSON form;
* **oracles** -- every shipped oracle passes on the existing named specs'
  scenarios (figure5/figure6/degradation/churn machines), and the
  white-box ``ObservedSimulator`` sees every quantum;
* **shrinking** -- a planted-bug case provably shrinks to the known
  minimal timeline (one arrival event, no warmup, single-VCPU roster),
  deterministically;
* **engine** -- the ``fuzz`` spec is registered with its profiles axis, a
  50-case campaign is byte-identical through the serial, process and
  distributed backends, warm reruns execute zero cells, and
  ``--reproduce`` maps clean/breached/unknown cases to exits 0/1/2.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.sim import jobs as jobs_module
from repro.sim.distributed import CoordinatorServer, DistributedBackend, run_worker
from repro.sim.fuzz.cells import (
    check_scenario,
    execute_fuzz_cell,
    fuzz_jobs,
    reproduce_case,
    scenario_machine,
)
from repro.sim.fuzz.generate import (
    FUZZ_PROFILES,
    PROFILE_NAMES,
    FuzzScenario,
    generate_scenario,
    parse_case_id,
)
from repro.sim.fuzz.oracles import (
    ORACLES,
    ObservedSimulator,
    OracleContext,
    planted_arrival_oracle,
    run_oracles,
)
from repro.sim.fuzz.shrink import repro_snippet, shrink
from repro.sim.experiments import churn_jobs, degradation_jobs
from repro.sim.jobs import simulate_cell
from repro.sim.runner import ExperimentRunner
from repro.sim.settings import ExperimentSettings
from repro.sim.specs import experiment

QUICK = ExperimentSettings.quick().with_workloads(("apache",)).with_seeds((0,))

SRC = str(Path(__file__).resolve().parents[1] / "src")


def check_case(profile: str, case: int, seed: int = 0, planted: bool = False):
    scenario = generate_scenario(QUICK, profile, case, seed)
    return scenario, check_scenario(QUICK, scenario, planted=planted)


def planted_checker(candidate: FuzzScenario):
    return check_scenario(QUICK, candidate, planted=True)[0]


# ===================================================================== #
# Generation
# ===================================================================== #


def _scenario_digest(settings: ExperimentSettings) -> str:
    import hashlib

    digest = hashlib.sha256()
    for profile in PROFILE_NAMES:
        for case in range(3):
            digest.update(
                generate_scenario(settings, profile, case, 0).to_json().encode()
            )
    return digest.hexdigest()


_DIGEST_SCRIPT = """
import hashlib, sys
sys.path.insert(0, {src!r})
from repro.sim.settings import ExperimentSettings
from repro.sim.fuzz.generate import PROFILE_NAMES, generate_scenario
settings = ExperimentSettings.quick().with_workloads(("apache",)).with_seeds((0,))
digest = hashlib.sha256()
for profile in PROFILE_NAMES:
    for case in range(3):
        digest.update(generate_scenario(settings, profile, case, 0).to_json().encode())
print(digest.hexdigest())
"""


class TestGeneration:
    def test_scenarios_are_reproducible_in_process(self):
        for profile in PROFILE_NAMES:
            first = generate_scenario(QUICK, profile, 1, 7)
            second = generate_scenario(QUICK, profile, 1, 7)
            assert first == second
            assert first.to_json() == second.to_json()

    def test_scenarios_are_byte_identical_across_processes(self):
        # The cache-soundness property: a fresh interpreter (fresh hash
        # randomisation) generates the exact same scenarios.
        code = _DIGEST_SCRIPT.format(src=SRC)
        fresh_process = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout.strip()
        assert fresh_process == _scenario_digest(QUICK)

    def test_distinct_identities_give_distinct_scenarios(self):
        scenarios = {
            generate_scenario(QUICK, profile, case, seed).to_json()
            for profile in PROFILE_NAMES
            for case in range(3)
            for seed in (0, 1)
        }
        assert len(scenarios) == len(PROFILE_NAMES) * 3 * 2

    def test_scenarios_are_valid_by_construction(self):
        # The generator's lifecycle model must line up with the machine's
        # guards: every generated scenario simulates without a crash and
        # passes every shipped oracle.
        for profile in PROFILE_NAMES:
            for case in range(4):
                scenario, (violations, _) = check_case(profile, case)
                assert violations == [], f"{scenario.case_id}: {violations}"

    def test_roster_and_horizon_respect_their_bounds(self):
        for profile in PROFILE_NAMES:
            scenario = generate_scenario(QUICK, profile, 0, 0)
            assert 2 <= len(scenario.roster) <= 4
            assert scenario.roster[0].present_at_start
            assert all(1 <= vm.num_vcpus <= 3 for vm in scenario.roster)
            assert scenario.total_cycles <= QUICK.total_cycles
            assert 0 <= scenario.warmup_cycles <= QUICK.warmup_cycles
            assert 2 <= len(scenario.timeline) <= 10

    def test_profiles_skew_the_event_mix(self):
        def kind_counts(profile: str):
            counts: dict = {}
            for case in range(12):
                scenario = generate_scenario(QUICK, profile, case, 0)
                for event in scenario.timeline.events:
                    counts[event.KIND] = counts.get(event.KIND, 0) + 1
            return counts

        churn = kind_counts("churn-heavy")
        failure = kind_counts("failure-heavy")
        churn_events = churn.get("vm-arrived", 0) + churn.get("vm-departed", 0)
        failure_events = failure.get("core-failed", 0) + failure.get(
            "core-repaired", 0
        )
        assert churn_events > failure.get("vm-arrived", 0) + failure.get(
            "vm-departed", 0
        )
        assert failure_events > churn.get("core-failed", 0) + churn.get(
            "core-repaired", 0
        )

    def test_scenario_round_trips_through_canonical_json(self):
        scenario = generate_scenario(QUICK, "mixed", 2, 5)
        assert FuzzScenario.from_json(scenario.to_json()) == scenario
        with pytest.raises(ExperimentError):
            FuzzScenario.from_json("{not json")
        with pytest.raises(ExperimentError):
            FuzzScenario.from_json('{"profile": "mixed"}')

    def test_case_ids_parse_and_reject(self):
        assert parse_case_id("mixed:3:1") == ("mixed", 3, 1)
        with pytest.raises(ExperimentError, match="malformed"):
            parse_case_id("garbage")
        with pytest.raises(ExperimentError, match="unknown fuzz profile"):
            parse_case_id("meteor:0:0")
        with pytest.raises(ExperimentError, match="integers"):
            parse_case_id("mixed:x:0")
        with pytest.raises(ExperimentError, match="non-negative"):
            parse_case_id("mixed:-1:0")

    def test_unknown_profile_is_a_helpful_error(self):
        with pytest.raises(ExperimentError, match="known:"):
            generate_scenario(QUICK, "meteor-strike", 0, 0)


# ===================================================================== #
# Oracles
# ===================================================================== #


class _RecordingSimulator(ObservedSimulator):
    """Stands in for ``Simulator`` inside ``simulate_cell`` so the existing
    specs' machines run under observation."""

    instances: list = []

    def __init__(self, machine, options, timeline=None) -> None:
        super().__init__(machine, options, timeline=timeline)
        _RecordingSimulator.instances.append(self)


class TestOracles:
    def test_all_shipped_oracles_are_registered(self):
        assert set(ORACLES) == {
            "cycle-accounting",
            "pause-accounting",
            "vm-conservation",
            "dmr-pairs",
            "retired-cores",
            "timeline-ledger",
            "fault-detection",
        }

    def test_oracles_pass_on_the_existing_specs_scenarios(self, monkeypatch):
        # The acceptance bar for oracle soundness: the named specs'
        # machines (single-VM Figure 5, the consolidated server, core
        # failures on a schedule, VM churn) breach nothing.
        jobs = (
            [experiment("figure5").enumerate_jobs(
                experiment("figure5").request(QUICK)
            )[0]]
            + [experiment("figure6").enumerate_jobs(
                experiment("figure6").request(QUICK)
            )[0]]
            + degradation_jobs(QUICK, (0, 2))
            + churn_jobs(QUICK, 1)
        )
        monkeypatch.setattr(jobs_module, "Simulator", _RecordingSimulator)
        for job in jobs:
            _RecordingSimulator.instances.clear()
            result = simulate_cell(job)
            (simulator,) = _RecordingSimulator.instances
            machine = simulator.machine
            context = OracleContext(
                machine=machine,
                result=result,
                options=simulator.options,
                timeline=simulator.timeline,
                observations=simulator.observations,
                roster_names=tuple(spec.name for spec in machine.vm_specs),
                initial_active=frozenset(
                    spec.name
                    for spec in machine.vm_specs
                    if spec.present_at_start
                ),
            )
            assert run_oracles(context, job.label) == []

    def test_observer_sees_every_quantum(self):
        scenario = generate_scenario(QUICK, "mixed", 0, 0)
        machine = scenario_machine(QUICK, scenario)
        options = replace(
            QUICK.options(),
            total_cycles=scenario.total_cycles,
            warmup_cycles=scenario.warmup_cycles,
        )
        simulator = ObservedSimulator(machine, options, timeline=scenario.timeline)
        result = simulator.run()
        measured = sum(1 for obs in simulator.observations if obs.measuring)
        assert measured == result.quantum_stats["quanta"]

    def test_planted_oracle_fires_only_on_applied_arrivals(self):
        # churn-heavy:0:0 applies an arrival; the quick mixed:0:0 does not.
        _, (violations, _) = check_case("churn-heavy", 0, planted=True)
        assert any(v.oracle == "planted-arrival" for v in violations)
        _, (clean, _) = check_case("mixed", 0, planted=True)
        assert not any(v.oracle == "planted-arrival" for v in clean)

    def test_violations_render_with_oracle_and_case(self):
        scenario, (violations, _) = check_case("churn-heavy", 0, planted=True)
        planted = next(v for v in violations if v.oracle == "planted-arrival")
        assert str(planted).startswith(f"[planted-arrival] {scenario.case_id}:")


# ===================================================================== #
# Shrinking
# ===================================================================== #


class TestShrinking:
    @pytest.fixture(scope="class")
    def shrunk(self):
        scenario = generate_scenario(QUICK, "churn-heavy", 0, 0)
        return shrink(scenario, planted_checker)

    def test_planted_bug_shrinks_to_the_minimal_timeline(self, shrunk):
        # The planted invariant ("no VM may arrive") has a provably minimal
        # reproduction: exactly one arrival event, nothing else.
        minimal = shrunk.scenario
        assert len(minimal.timeline) == 1
        (event,) = minimal.timeline.events
        assert event.KIND == "vm-arrived"
        assert minimal.warmup_cycles == 0
        assert all(vm.num_vcpus == 1 for vm in minimal.roster)
        # Only the arriving VM and one present-at-start anchor remain.
        assert len(minimal.roster) == 2
        assert shrunk.steps > 0
        assert shrunk.attempts >= shrunk.steps

    def test_shrunk_scenario_still_reproduces(self, shrunk):
        violations = planted_checker(shrunk.scenario)
        assert any(v.oracle == "planted-arrival" for v in violations)

    def test_shrinking_is_deterministic(self, shrunk):
        again = shrink(
            generate_scenario(QUICK, "churn-heavy", 0, 0), planted_checker
        )
        assert again.scenario.to_json() == shrunk.scenario.to_json()
        assert (again.steps, again.attempts) == (shrunk.steps, shrunk.attempts)

    def test_clean_scenarios_shrink_to_themselves(self):
        scenario = generate_scenario(QUICK, "mixed", 0, 0)
        result = shrink(scenario, lambda candidate: [])
        assert result.scenario is scenario
        assert result.steps == 0 and result.violations == ()

    def test_snippet_carries_the_replay_command(self, shrunk):
        snippet = repro_snippet(shrunk.scenario, shrunk.violations)
        assert (
            f"python -m repro fuzz --reproduce {shrunk.scenario.case_id}"
            in snippet
        )
        assert "Timeline.of(" in snippet
        assert "VmSpec(" in snippet


# ===================================================================== #
# Engine integration and CLI
# ===================================================================== #


def _frame_bytes(frame) -> str:
    return json.dumps(frame.to_json(), sort_keys=True)


def start_worker_thread(url: str) -> threading.Thread:
    thread = threading.Thread(
        target=run_worker,
        args=(url,),
        kwargs={"poll_seconds": 0.05, "max_idle_seconds": 2.0},
        daemon=True,
    )
    thread.start()
    return thread


PARITY = replace(QUICK, fuzz_cases=50, fuzz_profiles=("mixed",))


class TestEngineIntegration:
    def test_fuzz_spec_is_registered_with_profiles_axis(self):
        spec = experiment("fuzz")
        request = spec.request(QUICK)
        assert spec.metric_schema(request).keys == ("profile",)

    def test_cells_are_pure_and_cacheable(self):
        (job,) = fuzz_jobs(replace(QUICK, fuzz_cases=1, fuzz_profiles=("mixed",)))
        assert job.kind == "fuzz"
        first, second = execute_fuzz_cell(job), execute_fuzz_cell(job)
        assert first == second
        assert first["violations"] == 0 and first["repro"] == ""

    @pytest.mark.slow
    def test_backends_agree_byte_for_byte_over_50_cases(self):
        # The acceptance bar: a 50-case campaign produces byte-identical
        # ResultFrame documents through serial, process and distributed.
        spec = experiment("fuzz")
        serial = _frame_bytes(
            spec.run(PARITY, runner=ExperimentRunner(jobs=1, use_cache=False))
        )
        pooled = _frame_bytes(
            spec.run(PARITY, runner=ExperimentRunner(jobs=2, use_cache=False))
        )
        server = CoordinatorServer(port=0).start()
        try:
            worker = start_worker_thread(server.url)
            distributed = _frame_bytes(
                spec.run(
                    PARITY,
                    runner=ExperimentRunner(
                        jobs=2,
                        use_cache=False,
                        backend=DistributedBackend(server.url, poll_seconds=2.0),
                    ),
                )
            )
            worker.join(timeout=60)
        finally:
            server.stop()
        assert serial == pooled == distributed

    def test_warm_cache_executes_zero_cells(self, tmp_path):
        spec = experiment("fuzz")
        cold_runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        cold = _frame_bytes(spec.run(QUICK, runner=cold_runner))
        assert cold_runner.stats.executed == len(
            spec.enumerate_jobs(spec.request(QUICK))
        )
        warm_runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        warm = _frame_bytes(spec.run(QUICK, runner=warm_runner))
        assert warm_runner.stats.executed == 0
        assert warm == cold

    def test_reproduce_exit_codes(self, capsys):
        assert reproduce_case(QUICK, "mixed:0:0") == 0
        assert "case is clean" in capsys.readouterr().out
        assert reproduce_case(QUICK, "churn-heavy:0:0", planted=True) == 1
        assert "--reproduce churn-heavy:0:0" in capsys.readouterr().out
        with pytest.raises(ExperimentError):
            reproduce_case(QUICK, "garbage")

    def test_cli_maps_unknown_case_to_exit_2(self, capsys):
        assert main(["fuzz", "--quick", "--reproduce", "garbage"]) == 2
        assert "cannot reproduce" in capsys.readouterr().err

    def test_list_json_reports_the_fuzz_kind_and_axis(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "fuzz" in payload["registered_job_kinds"]
        (entry,) = [s for s in payload["specs"] if s["name"] == "fuzz"]
        assert entry["job_kinds"] == ["fuzz"]
        assert entry["axes"]["profile"] == list(PROFILE_NAMES)
