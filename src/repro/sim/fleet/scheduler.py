"""The fleet scheduler: place demand, evacuate failures, stagger upgrades.

:class:`FleetScheduler` consumes a :class:`~repro.sim.fleet.traffic.FleetScript`
and produces a :class:`FleetPlan`: one :class:`MachinePlan` per machine --
its base workload and the :class:`~repro.sim.timeline.Timeline` of
everything that happens to it -- plus the scheduler-level counters the fleet
metrics report (migrations, dropped placements, upgrade exposure).  Every
machine is the churn server of :mod:`repro.sim.jobs` with
:data:`BURST_SLOTS` deferred burst VMs; the plan names those VMs but does
not describe them.

The policy is deliberately simple and fully deterministic:

* **placement** -- each burst VM goes to the machine with the fewest failed
  cores, then the fewest active bursts, then the lowest fleet index, that
  has a burst slot free for the VM's whole stay;
* **evacuation** -- when a machine's failed-core count reaches half its
  cores, every burst VM still on it migrates to the best machine *outside
  the failing rack* (``VmDeparted`` on the source, ``VmArrived`` on the
  destination, same cycle); a burst with nowhere to go is dropped;
* **upgrades** -- a :class:`~repro.sim.fleet.traffic.ReliabilityUpgrade`
  becomes a ``ReliabilityModeChanged`` pair on the machine's reliable
  guest, and its exposure window is accounted to the machine.

Determinism matters more than cleverness here: the plan (and therefore
every per-machine timeline and job cache key) is a pure function of
``(topology, settings, script)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.fleet.cluster import FleetTopology, MachineSite
from repro.sim.fleet.traffic import (
    BurstDemand,
    CoreOutage,
    FleetScript,
    ReliabilityUpgrade,
)
from repro.sim.jobs import RELIABLE_VM, burst_vm_name
from repro.sim.settings import ExperimentSettings
from repro.sim.timeline import (
    CoreFailed,
    CoreRepaired,
    ReliabilityModeChanged,
    Timeline,
    TimelineEvent,
    VmArrived,
    VmDeparted,
)

__all__ = ["BURST_SLOTS", "FleetPlan", "FleetScheduler", "MachinePlan"]

#: Deferred burst-VM slots per machine (the per-machine consolidation
#: headroom demand bursts are placed into): the churn machine's extra VMs.
BURST_SLOTS = 2


@dataclass(frozen=True)
class MachinePlan:
    """One machine's share of a fleet run: workload, timeline and counters."""

    site: MachineSite
    #: The base workload of the machine's guests.
    workload: str
    timeline: Timeline
    #: Burst VMs that migrated onto / off this machine.
    migrations_in: int = 0
    migrations_out: int = 0
    #: Burst VMs originally placed here.
    placements: int = 0
    #: Cycles the reliable guest spent in the upgrade's unprotected mode.
    exposure_cycles: int = 0


@dataclass(frozen=True)
class FleetPlan:
    """The decomposed fleet run: one plan per machine, in fleet order."""

    machines: Tuple[MachinePlan, ...]
    #: Burst VMs with no machine to run on (cluster-full or storm loss).
    dropped: int = 0

    def machine(self, name: str) -> MachinePlan:
        for plan in self.machines:
            if plan.site.name == name:
                return plan
        raise KeyError(name)

    def total_migrations(self) -> int:
        """Fleet-wide migration count (each move counted once)."""
        return sum(plan.migrations_in for plan in self.machines)


class _MachineState:
    """Mutable per-machine bookkeeping while a script is being planned."""

    def __init__(self, site: MachineSite) -> None:
        self.site = site
        # Burst-slot occupancy: slot name -> [(arrive, depart), ...].
        self.slots: Dict[str, List[Tuple[int, int]]] = {
            burst_vm_name(index): [] for index in range(BURST_SLOTS)
        }
        # (fail_cycle, repair_cycle or None) per outage.
        self.outages: List[Tuple[int, Optional[int]]] = []
        self.core_events: List[TimelineEvent] = []
        self.mode_events: List[TimelineEvent] = []
        self.migrations_in = 0
        self.migrations_out = 0
        self.placements = 0
        self.exposure_cycles = 0

    def failed_cores_at(self, cycle: int) -> int:
        """Cores out of service at ``cycle`` (repairs honoured)."""
        return sum(
            1
            for failed, repaired in self.outages
            if failed <= cycle and (repaired is None or repaired > cycle)
        )

    def active_bursts_at(self, cycle: int) -> int:
        return sum(
            1
            for intervals in self.slots.values()
            for arrive, depart in intervals
            if arrive <= cycle < depart
        )

    def free_slot(self, arrive: int, depart: int) -> Optional[str]:
        """The first burst slot with no interval overlapping [arrive, depart)."""
        for slot, intervals in self.slots.items():
            if all(depart <= a or d <= arrive for a, d in intervals):
                return slot
        return None


class FleetScheduler:
    """Plans one fleet script into independent per-machine simulations."""

    def __init__(self, topology: FleetTopology, settings: ExperimentSettings) -> None:
        self.topology = topology
        self.settings = settings
        self.num_cores = settings.config().num_cores

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #

    def plan(self, script: FleetScript) -> FleetPlan:
        """React to the script's events and decompose the run per machine."""
        end = self.settings.warmup_cycles + self.settings.total_cycles
        states = {site.name: _MachineState(site) for site in self.topology.sites}
        dropped = 0

        for event in script.events:
            if isinstance(event, CoreOutage):
                dropped += self._apply_outage(states, event, end)
            elif isinstance(event, BurstDemand):
                dropped += self._apply_demand(states, event, end)
            elif isinstance(event, ReliabilityUpgrade):
                self._apply_upgrade(states, event, end)

        plans = tuple(
            self._materialise(states[site.name], end) for site in self.topology.sites
        )
        return FleetPlan(machines=plans, dropped=dropped)

    # -- event handlers ------------------------------------------------- #

    def _candidates(
        self, states: Dict[str, _MachineState], cycle: int
    ) -> List[_MachineState]:
        """Placement order: healthy first, then least loaded, then by index."""
        return sorted(
            states.values(),
            key=lambda state: (
                state.failed_cores_at(cycle),
                state.active_bursts_at(cycle),
                state.site.index,
            ),
        )

    def _apply_demand(
        self, states: Dict[str, _MachineState], event: BurstDemand, end: int
    ) -> int:
        if event.cycle >= end:
            return event.vms
        depart = min(event.cycle + event.duration, end)
        dropped = 0
        for _ in range(event.vms):
            placed = False
            for state in self._candidates(states, event.cycle):
                slot = state.free_slot(event.cycle, depart)
                if slot is not None:
                    state.slots[slot].append((event.cycle, depart))
                    state.placements += 1
                    placed = True
                    break
            if not placed:
                dropped += 1
        return dropped

    def _apply_outage(
        self, states: Dict[str, _MachineState], event: CoreOutage, end: int
    ) -> int:
        state = states[event.machine]
        if event.cycle >= end:
            return 0
        repair = event.repair_cycle if (event.repair_cycle or 0) < end else None
        state.outages.append((event.cycle, repair))
        state.core_events.append(CoreFailed(cycle=event.cycle, core_id=event.core_id))
        if repair is not None:
            state.core_events.append(CoreRepaired(cycle=repair, core_id=event.core_id))
        if state.failed_cores_at(event.cycle) * 2 >= self.num_cores:
            return self._evacuate(states, state, event.cycle)
        return 0

    def _evacuate(
        self, states: Dict[str, _MachineState], source: _MachineState, cycle: int
    ) -> int:
        """Move every current and future burst off a half-failed machine."""
        dropped = 0
        for slot, intervals in source.slots.items():
            kept: List[Tuple[int, int]] = []
            for arrive, depart in intervals:
                if depart <= cycle:
                    kept.append((arrive, depart))  # already gone
                    continue
                move = max(arrive, cycle)
                target = self._evacuation_target(states, source, move, depart)
                if arrive < cycle:
                    kept.append((arrive, cycle))  # drain at the outage
                if target is None:
                    dropped += 1
                    continue
                target_state, target_slot = target
                target_state.slots[target_slot].append((move, depart))
                target_state.migrations_in += 1
                source.migrations_out += 1
            source.slots[slot] = kept
        return dropped

    def _evacuation_target(
        self,
        states: Dict[str, _MachineState],
        source: _MachineState,
        arrive: int,
        depart: int,
    ) -> Optional[Tuple[_MachineState, str]]:
        """The best machine outside the failing rack with a free slot."""
        for state in self._candidates(states, arrive):
            if state.site.rack == source.site.rack:
                continue
            if state.failed_cores_at(arrive) * 2 >= self.num_cores:
                continue
            slot = state.free_slot(arrive, depart)
            if slot is not None:
                return state, slot
        return None

    def _apply_upgrade(
        self, states: Dict[str, _MachineState], event: ReliabilityUpgrade, end: int
    ) -> None:
        state = states[event.machine]
        start = event.cycle
        if start >= end:
            return
        restore = min(start + event.duration, end)
        state.mode_events.append(
            ReliabilityModeChanged(cycle=start, vm_name=RELIABLE_VM, mode=event.mode)
        )
        if restore < end:
            state.mode_events.append(
                ReliabilityModeChanged(
                    cycle=restore, vm_name=RELIABLE_VM, mode="RELIABLE"
                )
            )
        state.exposure_cycles += restore - start

    # -- materialisation ------------------------------------------------ #

    def _materialise(self, state: _MachineState, end: int) -> MachinePlan:
        events: List[TimelineEvent] = list(state.core_events)
        for slot in sorted(state.slots):
            for arrive, depart in sorted(state.slots[slot]):
                if arrive >= depart:
                    continue
                events.append(VmArrived(cycle=arrive, vm_name=slot))
                if depart < end:
                    events.append(VmDeparted(cycle=depart, vm_name=slot))
        events += state.mode_events
        # Base workloads rotate through the sweep's workload list so a fleet
        # mixes the paper's services.
        workloads = self.settings.workloads or ("apache",)
        return MachinePlan(
            site=state.site,
            workload=workloads[state.site.index % len(workloads)],
            timeline=Timeline.of(*events),
            migrations_in=state.migrations_in,
            migrations_out=state.migrations_out,
            placements=state.placements,
            exposure_cycles=state.exposure_cycles,
        )
