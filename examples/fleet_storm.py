#!/usr/bin/env python3
"""Fleet scenarios: a correlated failure storm over a 2-rack fleet.

The paper evaluates one consolidated server; the fleet subsystem lifts that
to a datacenter slice.  Here a seeded ``failure-storm`` scenario strikes one
rack of an 8-machine, 2-rack fleet -- every machine in the victim rack loses
half its cores within a tight window -- and the fleet scheduler evacuates
the burst VMs across the rack boundary.  Each machine then runs as one
cacheable engine cell, and the ``fleet`` spec folds the cells into fleet
SLOs: p99 degraded throughput, availability, migrations.

Two views of the same storm are shown:

1. the *plan* -- which rack was struck, which machines took refugees -- read
   straight off the deterministic scheduler output, and
2. the *sweep* -- the registered ``fleet`` spec run through the experiment
   engine over two seeds (``python -m repro fleet --quick`` runs the same
   thing from the CLI).

Run with::

    python examples/fleet_storm.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.sim.experiments import ExperimentSettings
from repro.sim.fleet.cells import fleet_plan, fleet_topology
from repro.sim.specs import experiment
from repro.sim.timeline import CoreFailed

SETTINGS = ExperimentSettings.quick().with_workloads(("apache",)).with_seeds((0, 1))


def main() -> None:
    print("1. The storm plan: who is struck, who takes the refugees")
    print("-" * 60)
    topology = fleet_topology(SETTINGS)
    print(f"fleet: {len(topology.sites)} machines in racks {', '.join(topology.racks())}")
    plan = fleet_plan(SETTINGS, "failure-storm", seed=0)
    for machine in plan.machines:
        failures = sum(
            1 for event in machine.timeline.events if isinstance(event, CoreFailed)
        )
        note = []
        if failures:
            note.append(f"{failures} cores fail")
        if machine.migrations_out:
            note.append(f"{machine.migrations_out} burst VM(s) evacuated")
        if machine.migrations_in:
            note.append(f"{machine.migrations_in} refugee(s) taken in")
        print(f"  {machine.site.name} ({machine.site.rack}): {'; '.join(note) or 'untouched'}")
    print(f"  fleet-wide migrations: {plan.total_migrations()}, dropped: {plan.dropped}")

    print()
    print("2. The same storm as a sweep (the `fleet` spec, 2 seeds)")
    print("-" * 60)
    frame = experiment("fleet").run(
        replace(SETTINGS, fleet_scenarios=("failure-storm",))
    )
    print(frame.to_table())

    # The frame's shape is the fleet SLO contract: one row per scenario,
    # with availability on (0, 1] -- degraded by the storm, never above
    # nominal -- and a storm that actually moved VMs.
    assert frame.axis_values("scenario") == ("failure-storm",)
    availability = frame.mean_of("availability", scenario="failure-storm")
    assert 0.0 < availability < 1.0, availability
    assert frame.mean_of("migrations", scenario="failure-storm") > 0
    assert frame.mean_of("p99_degraded_throughput", scenario="failure-storm") > 0.0
    print()
    print(f"availability under the storm: {availability:.4f} (< 1.0: the storm bit)")


if __name__ == "__main__":
    main()
