"""Synthetic per-VCPU instruction stream generator.

:class:`SyntheticWorkload` produces an endless stream of
:class:`~repro.isa.instructions.Instruction` records that alternates between
*user phases* and *OS phases*:

* a user phase contains a geometrically distributed number of user-level
  instructions drawn from the profile's user mix, then ends with a
  ``SYSCALL_ENTRY`` instruction;
* an OS phase contains privileged instructions drawn from the OS mix
  (including a higher density of serialising and privileged-register
  instructions), then ends with a ``SYSCALL_EXIT`` back to user code.

The stream is *resumable*: the simulator pulls instructions quantum by
quantum and the generator keeps its phase position, so a VCPU that is paused
(e.g. because its core pair was appropriated for DMR) continues exactly where
it stopped.
"""

from __future__ import annotations

from typing import Tuple

from repro.common.addresses import AddressSpaceLayout
from repro.common.rng import DeterministicRng
from repro.errors import WorkloadError
from repro.isa.instructions import Instruction, InstructionClass, PrivilegeLevel
from repro.workloads.address_stream import AddressStreamModel
from repro.workloads.profiles import WorkloadProfile


class SyntheticWorkload:
    """A resumable synthetic instruction stream for one VCPU.

    Parameters
    ----------
    profile:
        Workload profile (see :mod:`repro.workloads.profiles`).
    layout:
        Physical address-space layout used to place the VCPU's data.
    vm_id, vcpu_index, num_vcpus:
        Identify the VCPU within its VM (selects private/shared windows).
    seed:
        Seed for the VCPU's private random stream.
    phase_scale:
        Factor applied to the profile's phase lengths.  Experiments that run
        scaled-down simulations use values well below one so that every VCPU
        still alternates between user and OS code several times per run.
    os_privilege:
        Privilege level of OS-phase instructions -- ``GUEST_OS`` for a guest
        VM in a consolidated server, ``HYPERVISOR`` for the single-OS
        experiments where the OS *is* the most privileged software.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        layout: AddressSpaceLayout,
        vm_id: int = 0,
        vcpu_index: int = 0,
        num_vcpus: int = 8,
        seed: int = 0,
        phase_scale: float = 1.0,
        os_privilege: PrivilegeLevel = PrivilegeLevel.GUEST_OS,
    ) -> None:
        if os_privilege is PrivilegeLevel.USER:
            raise WorkloadError("os_privilege must be a privileged level")
        self.profile = profile.scaled(phase_scale=phase_scale) if phase_scale != 1.0 else profile
        self.vm_id = vm_id
        self.vcpu_index = vcpu_index
        self._os_privilege = os_privilege
        self._rng = DeterministicRng(seed).fork(f"wl.{profile.name}.{vm_id}.{vcpu_index}")
        self._addresses = AddressStreamModel(
            profile=self.profile,
            layout=layout,
            vm_id=vm_id,
            vcpu_index=vcpu_index,
            num_vcpus=num_vcpus,
            rng=self._rng.fork("addr"),
        )
        self._in_os_phase = False
        self._remaining_in_phase = self._sample_phase_length(user=True)

        # Hot-path bindings and per-privilege threshold tables.  The profile
        # is immutable after construction, so the cumulative mix thresholds
        # the per-instruction roll is compared against can be computed once;
        # the sums are built left-to-right exactly as the per-instruction code
        # used to, so the comparisons see bit-identical floats.
        self._random01 = self._rng.raw.random
        self._getrandbits = self._rng.raw.getrandbits
        self._next_address = self._addresses.next_address
        self._user_thresholds = self._mix_thresholds(PrivilegeLevel.USER)
        self._os_thresholds = self._mix_thresholds(self._os_privilege)

    def _mix_thresholds(
        self, privilege: PrivilegeLevel
    ) -> Tuple[float, float, float, float]:
        load_frac, store_frac, branch_frac = self.profile.mix_for(privilege)
        si_prob = self.profile.si_per_kilo_for(privilege) / 1000.0
        t_load = si_prob + load_frac
        t_store = t_load + store_frac
        t_branch = t_store + branch_frac
        return (si_prob, t_load, t_store, t_branch)

    # ------------------------------------------------------------------ #
    # Phase machinery
    # ------------------------------------------------------------------ #

    def _sample_phase_length(self, user: bool) -> int:
        mean = (
            self.profile.mean_user_phase_instructions
            if user
            else self.profile.mean_os_phase_instructions
        )
        return self._rng.geometric(float(mean))

    @property
    def address_model(self) -> AddressStreamModel:
        """The VCPU's data-address generator (used for cache warming)."""
        return self._addresses

    @property
    def in_os_phase(self) -> bool:
        """True while the stream is currently emitting OS-phase instructions."""
        return self._in_os_phase

    @property
    def current_privilege(self) -> PrivilegeLevel:
        """Privilege level of the next instruction to be emitted."""
        return self._os_privilege if self._in_os_phase else PrivilegeLevel.USER

    # ------------------------------------------------------------------ #
    # Instruction synthesis
    # ------------------------------------------------------------------ #

    def next_instruction(self) -> Instruction:
        """Return the next dynamic instruction of this VCPU's stream.

        The core timing model's hot loop (``run_quantum``) synthesises a
        phase's body itself, drawing from this stream and from the address
        model's in the same order as here; it takes only the phase-boundary
        traps from this method.
        """
        if self._remaining_in_phase <= 0:
            if self._in_os_phase:
                self._in_os_phase = False
                self._remaining_in_phase = self._sample_phase_length(user=True)
                iclass = InstructionClass.SYSCALL_EXIT
            else:
                self._in_os_phase = True
                self._remaining_in_phase = self._sample_phase_length(user=False)
                iclass = InstructionClass.SYSCALL_ENTRY
            # Exact inline of ``randint(0, 0xFFFF)``: randrange reduces it to
            # ``_randbelow(65536)``, which draws 17-bit chunks (65536 needs 17
            # bits) until one lands below 65536 -- same bit stream, no
            # argument-checking overhead.
            getrandbits = self._getrandbits
            result = getrandbits(17)
            while result >= 65536:
                result = getrandbits(17)
            # The trap itself executes at the privileged level it transfers
            # to / from, which is what forces the mode transition in an MMM.
            return Instruction(iclass=iclass, privilege=self._os_privilege, result=result)

        self._remaining_in_phase -= 1
        if self._in_os_phase:
            privilege = self._os_privilege
            t_si, t_load, t_store, t_branch = self._os_thresholds
            user = False
        else:
            privilege = PrivilegeLevel.USER
            t_si, t_load, t_store, t_branch = self._user_thresholds
            user = True

        roll = self._random01()
        address = None
        is_shared = False
        if roll >= t_si:
            if roll < t_load:
                iclass = InstructionClass.LOAD
                address, is_shared = self._next_address(privilege, False)
            elif roll < t_store:
                iclass = InstructionClass.STORE
                address, is_shared = self._next_address(privilege, True)
            elif roll < t_branch:
                iclass = InstructionClass.BRANCH
            else:
                iclass = InstructionClass.ALU
        elif user:
            iclass = InstructionClass.SERIALIZING
        else:
            iclass = (
                InstructionClass.PRIVILEGED
                if self._random01() < 0.5
                else InstructionClass.SERIALIZING
            )
        # Exact inline of ``randint(0, 0xFFFF)`` -- see the boundary path.
        getrandbits = self._getrandbits
        result = getrandbits(17)
        while result >= 65536:
            result = getrandbits(17)
        return Instruction(
            iclass=iclass,
            privilege=privilege,
            address=address,
            result=result,
            is_shared=is_shared,
        )
