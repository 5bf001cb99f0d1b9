"""Tests for the fleet subsystem: topology, generators, scheduler, cells.

Four legs:

* **topology** -- deterministic rack/power-domain layout and lookups;
* **determinism** -- the same (model, params, seed) produces identical
  scripts and plans in-process, and byte-identical per-machine timeline
  serializations *across processes* (the property that keeps fleet cells
  cacheable and the backends parity-safe);
* **scheduler** -- storm evacuation is rack-scoped, upgrades account their
  exposure window, flash crowds place without drops;
* **engine** -- a fleet runs through the serial, process and distributed
  backends with byte-identical ResultFrame documents, warm-cache reruns
  execute zero jobs, and availability reflects the storm.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.sim.distributed import CoordinatorServer, DistributedBackend, run_worker
from repro.sim.fleet.cells import (
    execute_fleet_cell,
    fleet_jobs,
    fleet_plan,
    fleet_topology,
    tail_percentile,
)
from repro.sim.fleet.cluster import FleetTopology
from repro.sim.fleet.traffic import SCENARIO_NAMES, CoreOutage, scenario_model
from repro.sim.runner import ExperimentRunner
from repro.sim.settings import ExperimentSettings
from repro.sim.specs import experiment
from repro.sim.timeline import CoreFailed, ReliabilityModeChanged

QUICK = ExperimentSettings.quick().with_workloads(("apache",)).with_seeds((0,))

SRC = str(Path(__file__).resolve().parents[1] / "src")


def quick_plan(scenario: str, seed: int = 0):
    return fleet_plan(QUICK, scenario, seed)


# ===================================================================== #
# Topology
# ===================================================================== #


class TestTopology:
    def test_even_layout_names_and_domains(self):
        topology = FleetTopology.build(8, 2)
        assert topology.machines() == (
            "r0m0", "r0m1", "r0m2", "r0m3", "r1m0", "r1m1", "r1m2", "r1m3",
        )
        assert topology.racks() == ("rack0", "rack1")
        # Adjacent rack pairs share a power domain.
        assert topology.power_domains() == ("pd0",)
        assert len(topology.sites_in_rack("rack0")) == 4
        assert topology.site("r1m2").rack == "rack1"

    def test_remainder_goes_to_earlier_racks(self):
        topology = FleetTopology.build(7, 3)
        assert [len(topology.sites_in_rack(rack)) for rack in topology.racks()] == [
            3, 2, 2,
        ]

    def test_invalid_shapes_are_rejected(self):
        with pytest.raises(ExperimentError):
            FleetTopology.build(0, 1)
        with pytest.raises(ExperimentError):
            FleetTopology.build(2, 3)
        with pytest.raises(ExperimentError):
            FleetTopology.build(8, 2).site("r9m9")

    def test_unknown_scenario_is_a_helpful_error(self):
        with pytest.raises(ExperimentError, match="failure-storm"):
            scenario_model("meteor-strike")


# ===================================================================== #
# Determinism
# ===================================================================== #


def _plan_digest(settings: ExperimentSettings) -> str:
    digest = hashlib.sha256()
    for scenario in SCENARIO_NAMES:
        for seed in (0, 1):
            plan = fleet_plan(settings, scenario, seed)
            for machine in plan.machines:
                digest.update(machine.timeline.to_json().encode())
                digest.update(machine.workload.encode())
    return digest.hexdigest()


_DIGEST_SCRIPT = """
import hashlib, sys
sys.path.insert(0, {src!r})
from repro.sim.settings import ExperimentSettings
from repro.sim.fleet.cells import fleet_plan
from repro.sim.fleet.traffic import SCENARIO_NAMES
settings = ExperimentSettings.quick().with_workloads(("apache",)).with_seeds((0,))
digest = hashlib.sha256()
for scenario in SCENARIO_NAMES:
    for seed in (0, 1):
        plan = fleet_plan(settings, scenario, seed)
        for machine in plan.machines:
            digest.update(machine.timeline.to_json().encode())
            digest.update(machine.workload.encode())
print(digest.hexdigest())
"""


class TestDeterminism:
    def test_scripts_are_reproducible_in_process(self):
        topology = fleet_topology(QUICK)
        for name in SCENARIO_NAMES:
            model = scenario_model(name)
            assert model.script(topology, QUICK, 3) == model.script(topology, QUICK, 3)

    def test_plans_are_reproducible_in_process(self):
        for name in SCENARIO_NAMES:
            assert quick_plan(name, seed=2) == quick_plan(name, seed=2)

    def test_timelines_are_byte_identical_across_processes(self):
        # The cache-soundness property: a fresh interpreter (fresh hash
        # randomisation, fresh import order) serializes the exact same
        # per-machine timelines for the same (model, params, seed).
        code = _DIGEST_SCRIPT.format(src=SRC)
        runs = [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        ]
        assert runs[0] == runs[1] == _plan_digest(QUICK)

    def test_jobs_and_cache_keys_are_stable(self):
        first, second = fleet_jobs(QUICK), fleet_jobs(QUICK)
        assert first == second
        keys = [job.cache_key() for job in first]
        assert len(set(keys)) == len(keys)  # every machine is its own cell
        assert all(job.kind == "fleet" for job in first)


# ===================================================================== #
# Scheduler policy
# ===================================================================== #


class TestScheduler:
    def test_storm_is_rack_scoped_and_evacuates_across_racks(self):
        plan = quick_plan("failure-storm")
        struck = {
            machine.site.rack
            for machine in plan.machines
            if any(isinstance(e, CoreFailed) for e in machine.timeline.events)
        }
        assert len(struck) == 1  # the storm hits exactly one rack
        victim = next(iter(struck))
        assert plan.total_migrations() > 0
        for machine in plan.machines:
            if machine.migrations_in:
                assert machine.site.rack != victim  # refugees land outside it
            if machine.migrations_out:
                assert machine.site.rack == victim

    def test_storm_script_strikes_half_the_cores(self):
        topology = fleet_topology(QUICK)
        script = scenario_model("failure-storm").script(topology, QUICK, 0)
        outages = [e for e in script.events if isinstance(e, CoreOutage)]
        num_cores = QUICK.config().num_cores
        struck_machines = {outage.machine for outage in outages}
        assert struck_machines == set(
            site.name for site in topology.sites_in_rack(sorted({
                topology.site(machine).rack for machine in struck_machines
            })[0])
        )
        for machine in struck_machines:
            assert sum(1 for o in outages if o.machine == machine) == num_cores // 2

    def test_rolling_upgrade_accounts_exposure_on_every_machine(self):
        plan = quick_plan("rolling-upgrade")
        for machine in plan.machines:
            assert machine.exposure_cycles > 0
            changes = [
                e
                for e in machine.timeline.events
                if isinstance(e, ReliabilityModeChanged)
            ]
            assert [c.mode for c in changes] == ["PERFORMANCE", "RELIABLE"]

    def test_flash_crowd_places_without_drops(self):
        plan = quick_plan("flash-crowd")
        assert plan.dropped == 0
        assert sum(machine.placements for machine in plan.machines) == len(
            plan.machines
        )

    def test_tail_percentile_interpolates(self):
        assert tail_percentile([], 0.01) == 0.0
        assert tail_percentile([5.0], 0.01) == 5.0
        values = [float(v) for v in range(1, 101)]
        assert tail_percentile(values, 0.01) == pytest.approx(1.99)
        assert tail_percentile(values, 0.0) == 1.0


# ===================================================================== #
# Engine integration
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


class TestEngineIntegration:
    def test_fleet_spec_is_registered_with_schema(self):
        spec = experiment("fleet")
        request = spec.request(QUICK)
        assert len(spec.enumerate_jobs(request)) == 8
        assert spec.metric_schema(request).keys == ("scenario",)

    def test_storm_availability_is_degraded_only_on_the_victim_rack(self):
        plan = quick_plan("failure-storm")
        jobs = fleet_jobs(QUICK)
        by_machine = {job.param("machine"): job for job in jobs}
        victim = next(
            machine for machine in plan.machines
            if any(isinstance(e, CoreFailed) for e in machine.timeline.events)
        )
        untouched = next(
            machine for machine in plan.machines
            if machine.site.rack != victim.site.rack
        )
        degraded = execute_fleet_cell(by_machine[victim.site.name])
        healthy = execute_fleet_cell(by_machine[untouched.site.name])
        assert 0.0 < degraded["availability"] < 1.0
        assert healthy["availability"] == pytest.approx(1.0)
        assert degraded["events_applied"] > 0

    def test_backends_agree_byte_for_byte(self):
        # The acceptance bar: an 8-machine fleet under a correlated failure
        # storm produces byte-identical ResultFrame documents through the
        # serial, process and distributed backends.
        spec = experiment("fleet")
        serial = _frame_bytes(
            spec.run(QUICK, runner=ExperimentRunner(jobs=1, use_cache=False))
        )
        pooled = _frame_bytes(
            spec.run(QUICK, runner=ExperimentRunner(jobs=2, use_cache=False))
        )
        server = CoordinatorServer(port=0).start()
        try:
            worker = start_worker_thread(server.url)
            distributed = _frame_bytes(
                spec.run(
                    QUICK,
                    runner=ExperimentRunner(
                        jobs=2,
                        use_cache=False,
                        backend=DistributedBackend(server.url, poll_seconds=2.0),
                    ),
                )
            )
            worker.join(timeout=30)
        finally:
            server.stop()
        assert serial == pooled == distributed

    def test_warm_cache_executes_zero_jobs(self, tmp_path):
        spec = experiment("fleet")
        cold_runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        cold = _frame_bytes(spec.run(QUICK, runner=cold_runner))
        assert cold_runner.stats.executed == 8

        warm_runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        warm = _frame_bytes(spec.run(QUICK, runner=warm_runner))
        assert warm_runner.stats.executed == 0
        assert warm == cold
