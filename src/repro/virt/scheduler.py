"""Core allocation and gang scheduling.

Two mechanisms live here:

* :class:`CoreAllocator` hands out physical cores (singles or DMR pairs) to
  the mapping policies and enforces the invariants the hardware must uphold
  (a core runs at most one VCPU per quantum; a pair consists of two distinct
  cores).
* :class:`GangScheduler` time-slices the machine between guest VMs, as the
  paper's consolidated-server methodology does (all of a VM's VCPUs run
  during its timeslice; the other VM's VCPUs wait for theirs).

The decision of *which* VCPUs run in which mode belongs to the MMM mapping
policies in :mod:`repro.core.policies`; this module only provides the
mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.cpu.timing import CoreAssignment
from repro.errors import SchedulingError


@dataclass(frozen=True)
class VcpuPlacement:
    """One VCPU's execution assignment for a quantum."""

    vcpu_id: int
    assignment: CoreAssignment
    #: A core held in reserve for this VCPU but currently idle (MMM-IPC keeps
    #: the mute core of a statically assigned pair idle while the VCPU runs
    #: in performance mode, so that the pair can re-form at the next OS entry
    #: without involving the scheduler).
    reserved_partner_core: Optional[int] = None

    @property
    def occupied_cores(self) -> Tuple[int, ...]:
        """Every core this placement makes unavailable to other VCPUs."""
        cores = tuple(self.assignment.cores)
        if self.reserved_partner_core is not None:
            cores = cores + (self.reserved_partner_core,)
        return cores


@dataclass
class MappingPlan:
    """The full VCPU-to-core mapping for one quantum."""

    placements: List[VcpuPlacement] = field(default_factory=list)
    paused_vcpu_ids: List[int] = field(default_factory=list)

    def validate(
        self, num_cores: int, retired_cores: FrozenSet[int] = frozenset()
    ) -> "MappingPlan":
        """Check no physical core is used twice (or retired); return ``self``."""
        used: set[int] = set()
        for placement in self.placements:
            for core in placement.occupied_cores:
                if core in used:
                    raise SchedulingError(
                        f"core {core} assigned to more than one VCPU in the same quantum"
                    )
                if not 0 <= core < num_cores:
                    raise SchedulingError(f"core {core} does not exist on this chip")
                if core in retired_cores:
                    raise SchedulingError(
                        f"core {core} is retired (failed) and cannot be scheduled"
                    )
                used.add(core)
        return self

    @property
    def cores_in_use(self) -> int:
        """Number of physical cores consumed by the plan."""
        return sum(len(p.assignment.cores) for p in self.placements)


class CoreAllocator:
    """Tracks which physical cores are free during plan construction.

    The allocator also owns the machine's *retired-core* set: cores taken
    out by a permanent fault (:meth:`retire`) leave the free pool until a
    repair restores them (:meth:`restore`), so the mapping policies -- which
    only ever see the free list -- transparently re-pair DMR partners around
    the failure at the next quantum.
    """

    def __init__(self, num_cores: int) -> None:
        self._num_cores = num_cores
        self._retired: Set[int] = set()
        self._free: List[int] = list(range(num_cores))

    @property
    def num_cores(self) -> int:
        """Total physical cores managed by the allocator."""
        return self._num_cores

    @property
    def retired_cores(self) -> FrozenSet[int]:
        """Cores currently retired by permanent faults."""
        return frozenset(self._retired)

    @property
    def num_healthy_cores(self) -> int:
        """Cores that are not retired (the machine's current capacity)."""
        return self._num_cores - len(self._retired)

    def retire(self, core_id: int) -> None:
        """Permanently remove one core from the pool (a core failure)."""
        if not 0 <= core_id < self._num_cores:
            raise SchedulingError(f"cannot retire core {core_id}: no such core")
        if core_id in self._retired:
            raise SchedulingError(f"core {core_id} is already retired")
        self._retired.add(core_id)
        if core_id in self._free:
            self._free.remove(core_id)

    def restore(self, core_id: int) -> None:
        """Return a previously retired core to the pool (a repair)."""
        if core_id not in self._retired:
            raise SchedulingError(f"cannot restore core {core_id}: it is not retired")
        self._retired.remove(core_id)

    def reset(self) -> None:
        """Return every healthy core to the free pool (start of a quantum)."""
        self._free = [
            core_id for core_id in range(self._num_cores) if core_id not in self._retired
        ]

    def allocate_single(self) -> Optional[int]:
        """Take one free core (or ``None`` when none remain)."""
        if not self._free:
            return None
        return self._free.pop(0)

    def allocate_pair(self) -> Optional[Tuple[int, int]]:
        """Take two free cores to form a DMR pair (or ``None``).

        Reunion allows any core to serve as vocal or mute for any other, so
        the allocator simply takes the two lowest-numbered free cores;
        adjacency is not required.
        """
        if len(self._free) < 2:
            return None
        vocal = self._free.pop(0)
        mute = self._free.pop(0)
        return (vocal, mute)


class GangScheduler:
    """Round-robin gang scheduling of guest VMs with a fixed timeslice.

    Membership is dynamic: :meth:`set_vm_ids` replaces the rotation when a
    guest VM arrives or departs mid-run (the consolidation-churn scenarios).
    The schedule is a pure function of the cycle and the *current* rotation,
    so a membership change deterministically redirects every timeslice from
    the change onward and leaves the past untouched.
    """

    def __init__(self, vm_ids: Sequence[int], timeslice_cycles: int) -> None:
        if not vm_ids:
            raise SchedulingError("gang scheduler needs at least one VM")
        if timeslice_cycles <= 0:
            raise SchedulingError("timeslice must be positive")
        self.vm_ids = list(vm_ids)
        self.timeslice_cycles = timeslice_cycles

    def set_vm_ids(self, vm_ids: Sequence[int]) -> None:
        """Replace the scheduled VM rotation (arrival/departure of a guest)."""
        if not vm_ids:
            raise SchedulingError("gang scheduler needs at least one VM")
        self.vm_ids = list(vm_ids)

    def vm_at(self, cycle: int) -> int:
        """VM scheduled on the machine at absolute ``cycle``."""
        slot = (cycle // self.timeslice_cycles) % len(self.vm_ids)
        return self.vm_ids[slot]

    def next_boundary(self, cycle: int) -> int:
        """First cycle after ``cycle`` at which the scheduled VM changes."""
        return (cycle // self.timeslice_cycles + 1) * self.timeslice_cycles
