"""Fleet-scale scenarios: a traffic-driven datacenter of mixed-mode machines.

The paper evaluates one consolidated server at a time; this package lifts
the evaluation to a *fleet*: machines grouped into racks and power domains
(:mod:`repro.sim.fleet.cluster`), seeded stochastic traffic models that
script what happens to the fleet -- diurnal load curves, flash crowds,
correlated failure storms, rolling reliability-policy upgrades
(:mod:`repro.sim.fleet.traffic`) -- and a placement/migration scheduler
that reacts to those events and decomposes the fleet run into independent
per-machine simulations (:mod:`repro.sim.fleet.scheduler`).

Each per-machine simulation is one ``fleet`` :class:`~repro.sim.jobs.ExperimentJob`
(:mod:`repro.sim.fleet.cells`) whose machine is the churn server of
:mod:`repro.sim.jobs`, so the whole engine applies for free: the process
and distributed backends parallelise a fleet, the on-disk cache makes
reruns instant, a serial batch simulates repeated machines once, and the
``fleet`` spec of :mod:`repro.sim.specs` folds the cells into a
:class:`~repro.sim.frames.ResultFrame` of fleet SLO metrics (p99 degraded
throughput, availability under failure storms, migration count,
policy-upgrade exposure window).
"""

from repro.sim.fleet.cluster import FleetTopology, MachineSite
from repro.sim.fleet.scheduler import FleetPlan, FleetScheduler, MachinePlan
from repro.sim.fleet.traffic import SCENARIO_NAMES, FleetScript, scenario_model

__all__ = [
    "FleetTopology",
    "MachineSite",
    "FleetPlan",
    "FleetScheduler",
    "MachinePlan",
    "FleetScript",
    "SCENARIO_NAMES",
    "scenario_model",
]
