"""Instruction classes and the lightweight instruction record.

Instructions are produced in bulk by the synthetic workload generators and
consumed by the core timing model, so the record is intentionally small
(``__slots__``-based dataclass) and carries only the fields the timing,
protection and DMR models inspect.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Optional


class PrivilegeLevel(Enum):
    """Privilege level at which an instruction executes."""

    USER = auto()
    #: Guest operating system code (privileged inside the VM, unprivileged
    #: with respect to the VMM in a consolidated server).
    GUEST_OS = auto()
    #: The most privileged software: the OS in a single-OS system or the VMM
    #: in a consolidated server.  Always executes in reliable (DMR) mode.
    HYPERVISOR = auto()


class InstructionClass(Enum):
    """Coarse instruction classes with distinct timing/protection behaviour."""

    ALU = auto()
    LOAD = auto()
    STORE = auto()
    BRANCH = auto()
    #: Serialising instruction: cannot execute until all older instructions
    #: have committed and stalls fetch until it is validated (Section 5.1).
    SERIALIZING = auto()
    #: Privileged register manipulation; only legal above user level.
    PRIVILEGED = auto()
    #: Transition from user code into the OS (system call, trap, interrupt).
    SYSCALL_ENTRY = auto()
    #: Return from the OS back to user code.
    SYSCALL_EXIT = auto()
    NOP = auto()


#: Instruction classes that access data memory.
MEMORY_CLASSES = frozenset({InstructionClass.LOAD, InstructionClass.STORE})

#: Instruction classes that the core treats as serialising.  The paper (and
#: Wells & Sohi's HPCA'08 study) serialises privileged register writes, traps
#: and returns in addition to explicitly serialising instructions.
SERIALIZING_CLASSES = frozenset(
    {
        InstructionClass.SERIALIZING,
        InstructionClass.PRIVILEGED,
        InstructionClass.SYSCALL_ENTRY,
        InstructionClass.SYSCALL_EXIT,
    }
)


@dataclass(slots=True)
class Instruction:
    """One dynamic instruction from a synthetic stream.

    Attributes
    ----------
    iclass:
        The :class:`InstructionClass`.
    privilege:
        Privilege level of the code containing the instruction.
    address:
        Virtual data address for loads and stores, ``None`` otherwise.
    result:
        A small integer summarising the architectural result; only used to
        feed fingerprints and the fault-injection machinery, never
        interpreted as a real value.
    is_shared:
        True when the data address falls in the workload's shared region
        (used for cache-to-cache transfer statistics).
    """

    iclass: InstructionClass
    privilege: PrivilegeLevel = PrivilegeLevel.USER
    address: Optional[int] = None
    result: int = 0
    is_shared: bool = False

    @property
    def is_load(self) -> bool:
        """True for load instructions."""
        return self.iclass is InstructionClass.LOAD

    @property
    def is_store(self) -> bool:
        """True for store instructions."""
        return self.iclass is InstructionClass.STORE

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return self.iclass in MEMORY_CLASSES

    @property
    def is_branch(self) -> bool:
        """True for branches."""
        return self.iclass is InstructionClass.BRANCH

    @property
    def is_serializing(self) -> bool:
        """True when the core must serialise around this instruction."""
        return self.iclass in SERIALIZING_CLASSES

    @property
    def is_user(self) -> bool:
        """True when the instruction belongs to user-level code.

        User commits are the unit of work in every experiment (the paper uses
        committed user instructions as its work metric).
        """
        return self.privilege is PrivilegeLevel.USER

    @property
    def is_privileged_code(self) -> bool:
        """True when the instruction runs above user privilege."""
        return self.privilege is not PrivilegeLevel.USER

    @property
    def enters_os(self) -> bool:
        """True when this instruction transfers control into the OS/VMM."""
        return self.iclass is InstructionClass.SYSCALL_ENTRY

    @property
    def exits_os(self) -> bool:
        """True when this instruction returns from the OS/VMM to user code."""
        return self.iclass is InstructionClass.SYSCALL_EXIT
