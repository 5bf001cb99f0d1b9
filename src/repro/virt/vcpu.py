"""Virtual CPUs and the per-VCPU reliability-mode register.

The paper's hardware/software interface (Section 3.3) is a single 2-bit
register per OS-visible virtual processor, writable only by privileged
software, selecting one of three modes:

1. operate with high reliability (DMR always),
2. operate with high performance (never DMR), or
3. operate with high performance only when executing non-privileged (user or
   guest-VM) software.

The paper's evaluation mixes modes 1 and 3; the reproduction implements all
three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Optional

from repro.errors import SchedulingError
from repro.isa.instructions import PrivilegeLevel
from repro.isa.registers import ArchitecturalState
from repro.workloads.generator import SyntheticWorkload


class ReliabilityMode(Enum):
    """Value of the per-VCPU reliability register."""

    #: Always execute redundantly (DMR).
    RELIABLE = auto()
    #: Never execute redundantly.
    PERFORMANCE = auto()
    #: Execute redundantly only while running privileged software.
    PERFORMANCE_USER_ONLY = auto()


@dataclass
class VirtualCPU:
    """One OS-visible virtual processor."""

    vcpu_id: int
    vm_id: int
    workload: SyntheticWorkload
    mode_register: ReliabilityMode = ReliabilityMode.RELIABLE
    arch_state: ArchitecturalState = field(default_factory=ArchitecturalState)

    # Accumulated results (read by the simulation results module).
    committed_instructions: int = 0
    committed_user_instructions: int = 0
    committed_os_instructions: int = 0
    active_cycles: int = 0
    mode_switches: int = 0
    mode_switch_cycles: int = 0

    def write_mode_register(
        self, mode: ReliabilityMode, writer_privilege: PrivilegeLevel
    ) -> None:
        """Write the reliability register (privileged software only)."""
        if writer_privilege is PrivilegeLevel.USER:
            raise SchedulingError(
                "the reliability-mode register is writable only by privileged software"
            )
        self.mode_register = mode

    def requires_dmr(self, privilege: Optional[PrivilegeLevel] = None) -> bool:
        """Whether the VCPU must execute redundantly right now.

        ``privilege`` is the privilege level of the code about to run; when
        omitted, the current phase of the VCPU's workload stream is used.
        """
        if self.mode_register is ReliabilityMode.RELIABLE:
            return True
        if self.mode_register is ReliabilityMode.PERFORMANCE:
            return False
        if privilege is None:
            privilege = self.workload.current_privilege
        return privilege is not PrivilegeLevel.USER

    def record_quantum(
        self, cycles: int, instructions: int, user_instructions: int, os_instructions: int
    ) -> None:
        """Accumulate the outcome of one executed quantum."""
        self.active_cycles += cycles
        self.committed_instructions += instructions
        self.committed_user_instructions += user_instructions
        self.committed_os_instructions += os_instructions

    def record_mode_switch(self, cycles: int) -> None:
        """Accumulate the cost of one mode transition charged to this VCPU."""
        self.mode_switches += 1
        self.mode_switch_cycles += cycles
