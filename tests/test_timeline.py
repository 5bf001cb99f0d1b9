"""Tests for the event-driven simulation timeline.

Four contracts:

* **timeline values** -- events validate, serialize canonically, and round
  trip through JSON (what the job identity digests);
* **machine lifecycle** -- retire/restore cores, admit/drain VMs and policy
  hot swaps enforce their invariants;
* **event application** -- events apply exactly at their cycle (cycle 0, the
  measurement boundary, two events inside one nominal quantum) and reshape
  the run deterministically;
* **engine determinism** -- the same events and seed produce byte-identical
  results across the serial and process backends and any job chunking,
  and the two new specs are registered and ride ``run_all_experiments``.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.faults.injector import FaultRates
from repro.sim.experiments import (
    ExperimentSettings,
    churn_jobs,
    degradation_jobs,
    run_all_experiments,
)
from repro.sim.jobs import simulate_cell
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import SimulationOptions, Simulator
from repro.sim.specs import EXPERIMENTS
from repro.sim.timeline import (
    CoreFailed,
    CoreRepaired,
    FaultRateBurst,
    PolicyChanged,
    ReliabilityModeChanged,
    Timeline,
    VmArrived,
    VmDeparted,
)
from repro.core.machine import MixedModeMachine, VmSpec
from repro.virt.vcpu import ReliabilityMode
from tests.conftest import make_small_machine

QUICK = ExperimentSettings.quick().with_workloads(("apache",)).with_seeds((0,))


def run_machine(machine, timeline=None, **options):
    defaults = dict(total_cycles=8_000, warmup_cycles=2_000)
    defaults.update(options)
    return Simulator(machine, SimulationOptions(**defaults), timeline=timeline).run()


def make_deferred_machine(config, seed=3):
    """A consolidated server plus one deferred burst VM."""
    specs = [
        VmSpec(
            name="reliable",
            workload="apache",
            num_vcpus=1,
            reliability=ReliabilityMode.RELIABLE,
            phase_scale=0.003,
            footprint_scale=0.1,
        ),
        VmSpec(
            name="performance",
            workload="apache",
            num_vcpus=2,
            reliability=ReliabilityMode.PERFORMANCE,
            phase_scale=0.003,
            footprint_scale=0.1,
        ),
        VmSpec(
            name="late",
            workload="apache",
            num_vcpus=1,
            reliability=ReliabilityMode.PERFORMANCE,
            phase_scale=0.003,
            footprint_scale=0.1,
            present_at_start=False,
        ),
    ]
    return MixedModeMachine(config=config, vm_specs=specs, policy="mmm-tp", seed=seed)


# ===================================================================== #
# Timeline values
# ===================================================================== #


class TestTimelineValues:
    def test_json_round_trip(self):
        timeline = Timeline.of(
            CoreFailed(cycle=100, core_id=3),
            CoreRepaired(cycle=900, core_id=3),
            VmArrived(cycle=200, vm_name="burst0"),
            VmDeparted(cycle=800, vm_name="burst0"),
            PolicyChanged(cycle=300, policy="mmm-ipc"),
            ReliabilityModeChanged(cycle=400, vm_name="late", mode="RELIABLE"),
            FaultRateBurst(cycle=500, scale=4.0, duration_cycles=100),
        )
        assert Timeline.from_json(timeline.to_json()) == timeline

    def test_serialization_is_canonical(self):
        # Same schedule, same bytes: the job cache key depends on this.
        a = Timeline.of(CoreFailed(cycle=10, core_id=1)).to_json()
        b = Timeline.of(CoreFailed(cycle=10, core_id=1)).to_json()
        assert a == b
        assert json.loads(a)[0]["kind"] == "core-failed"

    def test_construction_order_does_not_change_identity(self):
        # The same schedule listed in a different cross-cycle order must
        # compare equal and share a canonical serialization (cache key).
        a = Timeline.of(
            CoreFailed(cycle=200, core_id=1), CoreFailed(cycle=100, core_id=0)
        )
        b = Timeline.of(
            CoreFailed(cycle=100, core_id=0), CoreFailed(cycle=200, core_id=1)
        )
        assert a == b
        assert a.to_json() == b.to_json()

    def test_sorted_events_is_stable_for_ties(self):
        first = VmArrived(cycle=50, vm_name="a")
        second = VmDeparted(cycle=50, vm_name="a")
        timeline = Timeline.of(first, second)
        assert timeline.sorted_events() == [first, second]

    def test_validation_rejects_bad_events(self):
        with pytest.raises(SimulationError):
            Timeline.of(CoreFailed(cycle=-1, core_id=0))
        with pytest.raises(SimulationError):
            Timeline.of(FaultRateBurst(cycle=0, scale=0.0, duration_cycles=10))
        with pytest.raises(SimulationError):
            Timeline.of(FaultRateBurst(cycle=0, scale=2.0, duration_cycles=0))

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(SimulationError, match="unknown timeline event kind"):
            Timeline.from_json('[{"kind": "meteor-strike", "cycle": 5}]')
        with pytest.raises(SimulationError):
            Timeline.from_json("{not json")

    def test_misspelled_or_missing_fields_are_rejected(self):
        # A typo must not silently deserialize to a default-field event
        # (which would quietly run a different scenario).
        with pytest.raises(SimulationError, match="unknown field"):
            Timeline.from_json('[{"kind": "core-failed", "cycle": 100, "core": 5}]')
        with pytest.raises(SimulationError, match="missing field"):
            Timeline.from_json('[{"kind": "core-failed", "cycle": 100}]')


# ===================================================================== #
# Machine lifecycle
# ===================================================================== #


class TestMachineLifecycle:
    def test_retire_and_restore_cores(self, small_config):
        machine = make_small_machine(small_config)
        assert machine.num_healthy_cores == 4
        machine.retire_core(3)
        assert machine.retired_cores == frozenset({3})
        assert machine.num_healthy_cores == 3
        with pytest.raises(Exception):
            machine.retire_core(3)  # already retired
        machine.restore_core(3)
        assert machine.num_healthy_cores == 4
        with pytest.raises(Exception):
            machine.restore_core(3)  # not retired

    def test_last_healthy_core_cannot_be_retired(self, small_config):
        machine = make_small_machine(small_config)
        for core in (0, 1, 2):
            machine.retire_core(core)
        with pytest.raises(ConfigurationError, match="last healthy core"):
            machine.retire_core(3)

    def test_retired_cores_never_appear_in_plans(self, small_config):
        machine = make_small_machine(small_config)
        machine.retire_core(0)
        machine.allocator.reset()
        plan = machine.policy.plan_quantum(
            machine.vms[0].vcpus, machine.allocator, machine.pair_factory
        ).validate(machine.num_cores, machine.retired_cores)
        used = {core for p in plan.placements for core in p.occupied_cores}
        assert 0 not in used

    def test_admit_and_drain_vms(self, small_config):
        machine = make_deferred_machine(small_config)
        assert [vm.name for vm in machine.active_vms] == ["reliable", "performance"]
        with pytest.raises(ConfigurationError):
            machine.drain_vm("late")  # not active yet
        machine.admit_vm("late")
        assert machine.vm_by_name("late").active
        with pytest.raises(ConfigurationError):
            machine.admit_vm("late")  # already active
        machine.drain_vm("late")
        assert not machine.vm_by_name("late").active

    def test_last_active_vm_cannot_be_drained(self, small_config):
        machine = make_small_machine(small_config)
        machine.drain_vm("performance")
        with pytest.raises(ConfigurationError, match="last active VM"):
            machine.drain_vm("reliable")

    def test_machine_needs_one_present_vm(self, small_config):
        spec = VmSpec(
            name="only",
            workload="apache",
            num_vcpus=1,
            reliability=ReliabilityMode.RELIABLE,
            present_at_start=False,
        )
        with pytest.raises(ConfigurationError, match="present at start"):
            MixedModeMachine(config=small_config, vm_specs=[spec], policy="no-dmr")

    def test_policy_and_reliability_hot_swap(self, small_config):
        machine = make_small_machine(small_config)
        machine.set_policy("mmm-ipc")
        assert machine.policy.name == "mmm-ipc"
        machine.set_vm_reliability("performance", ReliabilityMode.RELIABLE)
        vm = machine.vm_by_name("performance")
        assert vm.is_reliable
        assert all(
            vcpu.mode_register is ReliabilityMode.RELIABLE for vcpu in vm.vcpus
        )


# ===================================================================== #
# Event application
# ===================================================================== #


class TestEventApplication:
    def test_core_failure_mid_run_degrades_the_machine(self, small_config):
        # Four performance VCPUs fill the 4-core chip during their slice;
        # retiring a core mid-run leaves one of them unplaceable.
        baseline = run_machine(
            make_small_machine(small_config, performance_vcpus=4)
        )
        timeline = Timeline.of(CoreFailed(cycle=4_000, core_id=3))
        degraded = run_machine(
            make_small_machine(small_config, performance_vcpus=4),
            timeline=timeline,
        )
        assert degraded.timeline_events_applied == 1
        assert degraded.timeline_stats == {"core-failed": 1}
        assert degraded.paused_vcpu_quanta > baseline.paused_vcpu_quanta
        # The measured capacity reflects the failure (3 healthy cores from
        # the failure onward), and fewer VCPU-quanta were placed.
        assert (
            degraded.quantum_stats["core_cycles_capacity"]
            < baseline.quantum_stats["core_cycles_capacity"]
        )
        assert (
            degraded.quantum_stats["placed_vcpus"]
            < baseline.quantum_stats["placed_vcpus"]
        )

    def test_event_at_cycle_zero_is_equivalent_to_prefailed_machine(
        self, small_config
    ):
        # An event at cycle 0 reshapes the machine before the first quantum,
        # so the run must be indistinguishable from starting with the core
        # already retired.  (Functional warming is disabled: the pre-failed
        # machine never warms the dead core, the timeline one would.)
        timeline = Timeline.of(CoreFailed(cycle=0, core_id=3))
        with_event = run_machine(
            make_small_machine(small_config),
            timeline=timeline,
            functional_warming=False,
        )
        prefailed_machine = make_small_machine(small_config)
        prefailed_machine.retire_core(3)
        prefailed = run_machine(prefailed_machine, functional_warming=False)
        assert with_event.timeline_events_applied == 1
        assert [vm.vcpus for vm in with_event.vm_results] == [
            vm.vcpus for vm in prefailed.vm_results
        ]
        assert with_event.quantum_stats == prefailed.quantum_stats

    def test_event_at_the_measurement_boundary(self, small_config):
        # The event applies exactly as measurement begins: the whole
        # measured window sees the degraded machine.
        boundary = Timeline.of(CoreFailed(cycle=2_000, core_id=3))
        at_boundary = run_machine(
            make_small_machine(small_config), timeline=boundary
        )
        from_start = run_machine(
            make_small_machine(small_config),
            timeline=Timeline.of(CoreFailed(cycle=0, core_id=3)),
        )
        assert at_boundary.timeline_events_applied == 1
        # Both runs measure a 3-core machine; warmup cache state may differ
        # but the degraded capacity must be identical.
        assert (
            at_boundary.quantum_stats["core_cycles_capacity"]
            == from_start.quantum_stats["core_cycles_capacity"]
        )

    def test_two_events_in_one_quantum_split_it(self, small_config):
        machine = make_small_machine(small_config)
        base = run_machine(make_small_machine(small_config), warmup_cycles=0)
        # FaultRateBurst on a machine without an injector changes nothing
        # except the quantum boundaries, so the only visible effect is the
        # split: two extra quanta.
        timeline = Timeline.of(
            FaultRateBurst(cycle=1_000, scale=2.0, duration_cycles=500),
            FaultRateBurst(cycle=2_500, scale=2.0, duration_cycles=500),
        )
        split = run_machine(machine, timeline=timeline, warmup_cycles=0)
        assert split.timeline_events_applied == 2
        assert split.quantum_stats["quanta"] == base.quantum_stats["quanta"] + 2

    def test_events_beyond_the_run_never_fire(self, small_config):
        timeline = Timeline.of(CoreFailed(cycle=1_000_000, core_id=3))
        result = run_machine(make_small_machine(small_config), timeline=timeline)
        assert result.timeline_events_applied == 0
        assert result.timeline_events_pending == 1

    def test_vm_churn_mid_run(self, small_config):
        machine = make_deferred_machine(small_config)
        timeline = Timeline.of(
            VmArrived(cycle=4_000, vm_name="late"),
            VmDeparted(cycle=12_000, vm_name="late"),
        )
        result = run_machine(machine, timeline=timeline, total_cycles=18_000)
        assert result.timeline_events_applied == 2
        # The burst VM ran during its stay...
        assert result.vm("late").user_instructions > 0
        # ...and left the schedule again.
        assert not machine.vm_by_name("late").active
        # Without the arrival the deferred VM never runs.
        quiet = run_machine(
            make_deferred_machine(small_config), total_cycles=18_000
        )
        assert quiet.vm("late").user_instructions == 0

    def test_policy_change_mid_run(self, small_config):
        machine = make_small_machine(small_config, policy="dmr-base",
                                     performance_mode=ReliabilityMode.RELIABLE)
        timeline = Timeline.of(PolicyChanged(cycle=4_000, policy="no-dmr"))
        result = run_machine(machine, timeline=timeline)
        assert result.timeline_events_applied == 1
        assert result.policy_name == "no-dmr"
        assert machine.policy.name == "no-dmr"

    def test_policy_change_keeps_the_boundary_leave_charge(self, small_config):
        # A policy hot-swap at a reliable-to-performance boundary must not
        # erase the Leave-DMR cost of the pairs that just executed.
        machine = make_small_machine(small_config, policy="mmm-ipc")
        swap = Timeline.of(PolicyChanged(cycle=4_000, policy="mmm-tp"))
        with_swap = run_machine(machine, timeline=swap, warmup_cycles=0,
                                total_cycles=12_000)
        without = run_machine(
            make_small_machine(small_config, policy="mmm-ipc"),
            warmup_cycles=0, total_cycles=12_000,
        )
        assert with_swap.timeline_events_applied == 1
        assert with_swap.leave_dmr_transitions >= without.leave_dmr_transitions > 0

    def test_reliability_mode_change_mid_run(self, small_config):
        machine = make_small_machine(small_config)
        timeline = Timeline.of(
            ReliabilityModeChanged(cycle=4_000, vm_name="performance",
                                   mode="RELIABLE")
        )
        result = run_machine(machine, timeline=timeline)
        assert result.timeline_events_applied == 1
        assert machine.vm_by_name("performance").is_reliable

    def test_reliability_flip_keeps_the_executed_slice_transition(self, small_config):
        # The reliable VM's slice runs under DMR; the event flips its mode
        # at the very boundary where the Leave-DMR cost is charged.  The
        # charge must follow the mode that actually executed, so the leave
        # transition is still paid.
        machine = make_small_machine(small_config)
        timeline = Timeline.of(
            ReliabilityModeChanged(cycle=4_000, vm_name="reliable",
                                   mode="PERFORMANCE")
        )
        result = run_machine(machine, timeline=timeline, warmup_cycles=0,
                             total_cycles=12_000)
        assert result.timeline_events_applied == 1
        assert result.leave_dmr_transitions >= 1

    def test_unknown_reliability_mode_raises(self, small_config):
        machine = make_small_machine(small_config)
        timeline = Timeline.of(
            ReliabilityModeChanged(cycle=0, vm_name="performance", mode="TURBO")
        )
        with pytest.raises(SimulationError, match="unknown reliability mode"):
            run_machine(machine, timeline=timeline)

    def test_fault_rate_burst_scales_and_restores_rates(self, small_config):
        rates = FaultRates(privileged_register=0.001)
        machine = make_small_machine(small_config, fault_rates=rates)
        timeline = Timeline.of(
            FaultRateBurst(cycle=3_000, scale=100.0, duration_cycles=2_000)
        )
        result = run_machine(machine, timeline=timeline)
        assert result.timeline_events_applied == 1
        # The burst ended mid-run: the base rates must be restored.
        assert machine.fault_injector.rates == rates
        # A heavy burst injects more faults than the quiet baseline.
        quiet = make_small_machine(small_config, fault_rates=rates)
        run_machine(quiet)
        assert (
            machine.fault_injector.injected_fault_count
            >= quiet.fault_injector.injected_fault_count
        )


# ===================================================================== #
# Warmup clamp
# ===================================================================== #


class TestWarmupClamp:
    def test_unaligned_warmup_is_clamped_and_surfaced(self, small_config):
        machine = make_small_machine(small_config)
        result = run_machine(machine, warmup_cycles=2_500, total_cycles=6_000)
        # The warmup boundary falls mid-quantum (timeslice 4000): the final
        # warmup quantum is clamped by 1500 cycles so measurement starts
        # exactly at cycle 2500.
        assert result.warmup_clamp_cycles == 1_500
        assert result.total_cycles == 6_000

    def test_aligned_warmup_needs_no_clamp(self, small_config):
        machine = make_small_machine(small_config)
        result = run_machine(machine, warmup_cycles=4_000, total_cycles=6_000)
        assert result.warmup_clamp_cycles == 0

    def test_clamped_run_measures_the_full_window(self, small_config):
        # Measurement must start exactly at the warmup boundary: the final
        # warmup quantum is split there, so the measured window contains one
        # more quantum than the aligned equivalent (the boundary partial
        # slice) and still commits a full window of work.
        unaligned = run_machine(
            make_small_machine(small_config), warmup_cycles=2_500,
            total_cycles=8_000,
        )
        aligned = run_machine(
            make_small_machine(small_config), warmup_cycles=4_000,
            total_cycles=8_000,
        )
        assert unaligned.warmup_clamp_cycles == 1_500
        assert (
            unaligned.quantum_stats["quanta"]
            == aligned.quantum_stats["quanta"] + 1
        )
        assert unaligned.total_user_instructions > 0


# ===================================================================== #
# Placement after a reliability-mode change
# ===================================================================== #


class TestPlanReuse:
    def test_reliability_mode_change_replans_with_dmr_pairs(self, small_config):
        # The very next placement of a VM flipped to RELIABLE carries DMR
        # pairs.
        machine = make_small_machine(small_config)
        timeline = Timeline.of(
            ReliabilityModeChanged(cycle=1_000, vm_name="performance",
                                   mode="RELIABLE")
        )
        sim = Simulator(
            machine,
            SimulationOptions(total_cycles=8_000, warmup_cycles=2_000),
            timeline=timeline,
        )
        vm = next(v for v in machine.active_vms if v.name == "performance")
        plan = sim._phase_place(vm)
        assert all(
            p.assignment.secondary_core is None for p in plan.placements
        )
        sim._apply_due_events(1_000)
        plan = sim._phase_place(vm)
        assert all(
            p.assignment.secondary_core is not None
            for p in plan.placements
        )


# ===================================================================== #
# Fuzz-found regression scenarios
# ===================================================================== #


def run_fuzz_regression(vm_specs, policy, seed, timeline, total, warmup):
    """Replay one frozen fuzz scenario under full oracle observation.

    The rosters and timelines below are the gnarliest scenarios surfaced by
    the 180-case default `repro fuzz` campaign, frozen verbatim (generator
    changes must not silently rewrite them).  Each runs on the evaluation
    config with every invariant oracle attached; regressions in event
    application, lifecycle accounting or plan shape fail here first.
    """
    from repro.sim.fuzz.oracles import OracleContext, observe_run, run_oracles

    settings = ExperimentSettings()
    machine = MixedModeMachine(
        config=settings.config(), vm_specs=vm_specs, policy=policy, seed=seed
    )
    options = SimulationOptions(total_cycles=total, warmup_cycles=warmup)
    result, observations = observe_run(machine, options, timeline=timeline)
    context = OracleContext(
        machine=machine,
        result=result,
        options=options,
        timeline=timeline,
        observations=observations,
        roster_names=tuple(spec.name for spec in vm_specs),
        initial_active=frozenset(
            spec.name for spec in vm_specs if spec.present_at_start
        ),
    )
    assert run_oracles(context, "regression") == []
    return machine, result


def fuzz_vm(name, workload, vcpus, mode, present):
    return VmSpec(
        name=name,
        workload=workload,
        num_vcpus=vcpus,
        reliability=mode,
        phase_scale=0.01,
        footprint_scale=0.125,
        present_at_start=present,
    )


class TestFuzzRegressions:
    def test_mode_change_on_a_vm_that_has_not_arrived_yet(self):
        # fuzz case mixed:0:5 -- fuzz2's reliability flips while it is still
        # deferred, then it arrives, the policy hot-swaps and two cores fail
        # and repair inside the measured window.
        machine, result = run_fuzz_regression(
            vm_specs=[
                fuzz_vm("fuzz0", "oltp", 3, ReliabilityMode.RELIABLE, True),
                fuzz_vm("fuzz1", "pgbench", 1, ReliabilityMode.PERFORMANCE, True),
                fuzz_vm("fuzz2", "apache", 2, ReliabilityMode.PERFORMANCE, False),
            ],
            policy="mmm-ipc",
            seed=5,
            timeline=Timeline.of(
                ReliabilityModeChanged(cycle=3342, vm_name="fuzz2", mode="RELIABLE"),
                PolicyChanged(cycle=3858, policy="mmm-tp"),
                VmArrived(cycle=4036, vm_name="fuzz2"),
                ReliabilityModeChanged(cycle=7391, vm_name="fuzz1", mode="RELIABLE"),
                VmDeparted(cycle=12834, vm_name="fuzz0"),
                CoreFailed(cycle=14911, core_id=12),
                CoreRepaired(cycle=16633, core_id=12),
                CoreFailed(cycle=16948, core_id=3),
                CoreRepaired(cycle=17109, core_id=3),
            ),
            total=21384,
            warmup=977,
        )
        assert result.timeline_events_applied == 9
        # The pre-arrival flip stuck: fuzz2 entered the schedule reliable.
        assert machine.vm_by_name("fuzz2").is_reliable
        assert {vm.name for vm in machine.active_vms} == {"fuzz1", "fuzz2"}
        assert machine.retired_cores == frozenset()

    def test_adaptive_policy_with_mid_warmup_churn_and_core_failure(self):
        # fuzz case mixed:5:1 -- the stateful adaptive policy sees a VM
        # arrive during warmup, three reliability flips, a core failure that
        # lasts most of the run, and a policy swap to mmm-tp near the end.
        machine, result = run_fuzz_regression(
            vm_specs=[
                fuzz_vm("fuzz0", "oltp", 1, ReliabilityMode.PERFORMANCE, True),
                fuzz_vm("fuzz1", "pmake", 3, ReliabilityMode.RELIABLE, True),
                fuzz_vm("fuzz2", "apache", 2, ReliabilityMode.PERFORMANCE, True),
                fuzz_vm("fuzz3", "apache", 3, ReliabilityMode.PERFORMANCE, False),
            ],
            policy="mmm-adaptive",
            seed=1,
            timeline=Timeline.of(
                VmArrived(cycle=5847, vm_name="fuzz3"),
                ReliabilityModeChanged(cycle=8375, vm_name="fuzz2", mode="RELIABLE"),
                ReliabilityModeChanged(cycle=13266, vm_name="fuzz3", mode="PERFORMANCE"),
                CoreFailed(cycle=14785, core_id=0),
                ReliabilityModeChanged(cycle=18468, vm_name="fuzz1", mode="RELIABLE"),
                PolicyChanged(cycle=28313, policy="mmm-tp"),
                FaultRateBurst(cycle=30487, scale=5.5324, duration_cycles=1589),
                CoreRepaired(cycle=40658, core_id=0),
            ),
            total=40957,
            warmup=14166,
        )
        assert result.timeline_events_applied == 8
        assert result.policy_name == "mmm-tp"
        assert machine.retired_cores == frozenset()

    def test_vm_departs_and_rearrives_with_a_pending_tail_event(self):
        # fuzz case churn-heavy:1:5 -- fuzz3 departs and re-arrives within
        # one run, fuzz1 and fuzz2 churn around a core failure window, and
        # the final arrival lands beyond the horizon (pending, never
        # applied).
        machine, result = run_fuzz_regression(
            vm_specs=[
                fuzz_vm("fuzz0", "pgoltp", 3, ReliabilityMode.PERFORMANCE, True),
                fuzz_vm("fuzz1", "pgbench", 1, ReliabilityMode.RELIABLE, False),
                fuzz_vm("fuzz2", "pgoltp", 1, ReliabilityMode.PERFORMANCE, True),
                fuzz_vm("fuzz3", "oltp", 3, ReliabilityMode.PERFORMANCE, False),
            ],
            policy="mmm-tp",
            seed=5,
            timeline=Timeline.of(
                FaultRateBurst(cycle=2691, scale=6.1604, duration_cycles=4978),
                VmArrived(cycle=2970, vm_name="fuzz1"),
                CoreFailed(cycle=22880, core_id=9),
                VmArrived(cycle=25298, vm_name="fuzz3"),
                VmDeparted(cycle=27486, vm_name="fuzz1"),
                CoreRepaired(cycle=28316, core_id=9),
                VmDeparted(cycle=35878, vm_name="fuzz3"),
                VmArrived(cycle=36046, vm_name="fuzz3"),
                VmDeparted(cycle=39176, vm_name="fuzz2"),
                VmArrived(cycle=51251, vm_name="fuzz1"),
            ),
            total=35265,
            warmup=10119,
        )
        assert result.timeline_events_applied == 9
        assert result.timeline_events_pending == 1
        assert {vm.name for vm in machine.active_vms} == {"fuzz0", "fuzz3"}


# ===================================================================== #
# Engine determinism and spec registration
# ===================================================================== #


def fresh(jobs: int = 1, backend=None) -> ExperimentRunner:
    return ExperimentRunner(jobs=jobs, use_cache=False, backend=backend)


def canonical(results) -> str:
    return json.dumps(
        {job.cache_key(): metrics for job, metrics in results.items()},
        sort_keys=True,
    )


class TestTimelineDeterminism:
    @pytest.fixture(scope="class")
    def dynamic_jobs(self):
        return degradation_jobs(QUICK, (0, 2)) + churn_jobs(QUICK, 1)

    def test_events_are_part_of_the_job_identity(self):
        plain = degradation_jobs(QUICK, (0,))
        failing = degradation_jobs(QUICK, (2,))
        assert {job.cache_key() for job in plain}.isdisjoint(
            {job.cache_key() for job in failing}
        )

    def test_simulate_cell_is_deterministic(self, dynamic_jobs):
        job = [j for j in dynamic_jobs if j.param("timeline")][0]
        assert simulate_cell(job) == simulate_cell(job)

    @pytest.mark.slow
    def test_byte_identical_across_all_backends(self, dynamic_jobs):
        serial = fresh().run_jobs(dynamic_jobs)
        process = fresh(jobs=2, backend="process").run_jobs(dynamic_jobs)
        assert canonical(serial) == canonical(process)

    def test_chunking_does_not_change_results(self, dynamic_jobs):
        whole = fresh().run_jobs(dynamic_jobs)
        chunked_runner = fresh()
        half = len(dynamic_jobs) // 2
        chunked = dict(chunked_runner.run_jobs(dynamic_jobs[:half]))
        chunked.update(chunked_runner.run_jobs(dynamic_jobs[half:]))
        reordered = fresh().run_jobs(list(reversed(dynamic_jobs)))
        assert canonical(whole) == canonical(chunked) == canonical(reordered)

    def test_events_fire_mid_run_in_the_degradation_cells(self, dynamic_jobs):
        results = fresh().run_jobs(dynamic_jobs)
        for job, metrics in results.items():
            if job.kind == "degradation" and job.param("failed_cores"):
                assert metrics["events_applied"] == job.param("failed_cores")
            if job.kind == "churn":
                assert metrics["events_applied"] == 2  # arrive + depart

    def test_specs_are_registered_and_ride_run_all(self):
        assert "degradation" in EXPERIMENTS
        assert "consolidation-churn" in EXPERIMENTS
        everything = run_all_experiments(
            QUICK,
            runner=fresh(),
            include_switching=False,
            include_ablation=False,
            include_faults=False,
        )
        assert "degradation" in everything.frames
        assert "consolidation-churn" in everything.frames
        rendered = everything.render()
        assert "Graceful degradation" in rendered
        assert "Consolidation churn" in rendered
