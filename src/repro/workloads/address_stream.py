"""Synthetic data-address generation.

Each VCPU owns an :class:`AddressStreamModel` that produces the virtual data
addresses for its loads and stores.  The model implements the locality
structure the evaluation depends on:

* a small *hot* set per VCPU (captures L1/L2 behaviour),
* a larger *cold* footprint per VCPU (creates shared-L3 capacity pressure,
  which is what separates the paper's ``No DMR`` and ``No DMR 2X``
  configurations),
* a per-VM *shared* region touched by all VCPUs of the VM (creates
  cache-to-cache transfers, which Reunion's mute incoherence amplifies),
* a per-VM *kernel* region used by OS-phase accesses, with its own hot set
  and a shared portion modelling global kernel data structures.

Addresses are *virtual*; the page table maps them to physical addresses in
the VM's region of the simulated physical address space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.addresses import DEFAULT_LINE_SIZE, AddressSpaceLayout
from repro.common.rng import DeterministicRng
from repro.errors import WorkloadError
from repro.isa.instructions import PrivilegeLevel
from repro.workloads.profiles import WorkloadProfile

# next_address reads this name, not ``PrivilegeLevel.USER``: an enum-class
# attribute read costs about ten times a global's on 3.10 and 3.11 (see the
# bindings in repro.mem.cache).
_USER = PrivilegeLevel.USER


@dataclass(frozen=True)
class _Window:
    """A [base, base+span) window of the virtual address space."""

    base: int
    span: int


class AddressStreamModel:
    """Generates virtual data addresses for one VCPU.

    Parameters
    ----------
    profile:
        The workload profile providing working-set sizes and sharing
        fractions.
    layout:
        The physical address-space layout; only region *sizes* are used here
        (virtual regions mirror the physical ones one-to-one, which keeps the
        page table trivial while remaining a faithful model for the
        mechanisms under study).
    vm_id:
        Guest VM this VCPU belongs to.
    vcpu_index:
        Index of the VCPU within its VM; selects the VCPU's private slice of
        the VM's user region.
    num_vcpus:
        Number of VCPUs sharing the VM's user region.
    rng:
        Deterministic random source (forked per VCPU by the caller).
    line_size:
        Alignment of the generated addresses; a power of two.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        layout: AddressSpaceLayout,
        vm_id: int,
        vcpu_index: int,
        num_vcpus: int,
        rng: DeterministicRng,
        line_size: int = DEFAULT_LINE_SIZE,
    ) -> None:
        if num_vcpus < 1:
            raise WorkloadError("num_vcpus must be at least 1")
        if not 0 <= vcpu_index < num_vcpus:
            raise WorkloadError(
                f"vcpu_index {vcpu_index} outside [0, {num_vcpus}) for VM {vm_id}"
            )
        if line_size < 1 or line_size & (line_size - 1):
            raise WorkloadError(f"line_size must be a power of two, got {line_size}")
        self._line_size = line_size
        self._vcpu_index = vcpu_index
        self._num_vcpus = num_vcpus

        user_region = layout.user_region(vm_id)
        shared_region = layout.shared_region(vm_id)
        kernel_region = layout.kernel_region(vm_id)

        slice_span = user_region.size // num_vcpus
        slice_base = user_region.base + vcpu_index * slice_span
        hot_span = min(profile.user_hot_bytes, slice_span)
        cold_span = min(profile.user_footprint_bytes, slice_span)
        self._user_hot = _Window(slice_base, max(line_size, hot_span))
        self._user_cold = _Window(slice_base, max(line_size, cold_span))

        # Kernel accesses: a per-VCPU private slice (per-thread kernel stacks,
        # private buffers) plus a shared slice (global kernel structures).
        kernel_slice_span = max(line_size, kernel_region.size // (num_vcpus + 1))
        kernel_slice_base = kernel_region.base + vcpu_index * kernel_slice_span
        kernel_hot = min(profile.kernel_hot_bytes, kernel_slice_span)
        kernel_cold = min(profile.kernel_footprint_bytes, kernel_slice_span)
        self._kernel_hot = _Window(kernel_slice_base, max(line_size, kernel_hot))
        self._kernel_cold = _Window(kernel_slice_base, max(line_size, kernel_cold))
        shared_kernel_base = kernel_region.base + num_vcpus * kernel_slice_span
        self._kernel_shared = _Window(
            shared_kernel_base, max(line_size, kernel_region.end - shared_kernel_base)
        )

        self._shared = _Window(shared_region.base, max(line_size, shared_region.size))

        # The draw's tables, read by next_address and by the copy of its
        # draw that CoreTimingModel.run_quantum inlines (once per simulated
        # memory instruction), which binds one privilege's tuple per phase.
        # Per privilege it is one tuple (shared-access probability, then the
        # shared, hot and cold draws); a draw is ``(base, span, bits)`` with
        # ``bits = span.bit_length()`` computed once here.  Every span is at
        # least one line.
        self._r01 = rng.raw.random
        self._getrandbits = rng.raw.getrandbits
        self._hot_fraction = profile.hot_access_fraction
        self._line_mask = -line_size
        self._user_draws = (
            profile.shared_access_fraction,
            _draw(self._shared.base, self._shared.span),
            *_hot_cold_draws(self._user_cold.base, self._user_hot.span, self._user_cold.span),
        )
        self._kernel_draws = (
            profile.os_shared_access_fraction,
            _draw(self._kernel_shared.base, self._kernel_shared.span),
            *_hot_cold_draws(
                self._kernel_cold.base, self._kernel_hot.span, self._kernel_cold.span
            ),
        )

    @property
    def user_private_window(self) -> Tuple[int, int]:
        """``(base, span)`` of this VCPU's private user window (for tests)."""
        return (self._user_cold.base, self._user_cold.span)

    def warm_addresses(self) -> Tuple[int, ...]:
        """Line addresses covering this VCPU's working set, coldest first.

        Used for functional cache warming before measurement: touching these
        addresses reproduces the steady-state cache contents a long-running
        workload would have built up (the paper simulates from warmed
        checkpoints for the same reason).  Hot-set lines come last so they end
        up most recently used and therefore resident in the L1/L2.

        The VM-wide shared windows (user shared data and global kernel
        structures) are split between the VM's VCPUs so that each VCPU warms
        its slice on its own core; later cross-VCPU accesses to those lines
        then hit other cores' L2s (cache-to-cache transfers), as they would in
        a long-running system.
        """
        addresses: list[int] = []
        for shared in (self._shared, self._kernel_shared):
            slice_span = max(self._line_size, shared.span // self._num_vcpus)
            slice_base = shared.base + self._vcpu_index * slice_span
            slice_end = min(shared.base + shared.span, slice_base + slice_span)
            addresses.extend(range(slice_base, slice_end, self._line_size))
        for window in (self._kernel_cold, self._user_cold, self._kernel_hot, self._user_hot):
            addresses.extend(
                range(window.base, window.base + window.span, self._line_size)
            )
        return tuple(addresses)

    @property
    def shared_window(self) -> Tuple[int, int]:
        """``(base, span)`` of the VM-wide shared data window."""
        return (self._shared.base, self._shared.span)

    def next_address(
        self, privilege: PrivilegeLevel, is_store: bool
    ) -> Tuple[int, bool]:
        """Return ``(virtual_address, is_shared)`` for the next memory access.

        ``is_shared`` marks accesses into a region touched by multiple VCPUs
        (the VM's shared data region, or shared kernel structures); the
        memory hierarchy uses it only for statistics -- actual cache-to-cache
        behaviour emerges from the directory state.
        """
        # A full inline of the DeterministicRng chance -> sample_address /
        # hot_cold_address chain, its executable specification: every draw
        # happens under the same condition and in the same order, so the
        # value stream is bit-identical (tests/test_address_draw.py).  The
        # span draw is Random._randbelow's getrandbits rejection loop (as on
        # CPython 3.10-3.12) with the bit length hoisted, and the alignment
        # is a mask because the line size is a power of two.
        r01 = self._r01
        p, shared, hot, cold = (
            self._user_draws if privilege is _USER else self._kernel_draws
        )
        if (r01() < p) if 0.0 < p < 1.0 else p >= 1.0:
            base, span, bits = shared
            is_shared = True
        else:
            # The hot-set chance is drawn *before* the span comparison,
            # exactly as hot_cold_address does.
            hp = self._hot_fraction
            if ((r01() < hp) if 0.0 < hp < 1.0 else hp >= 1.0) or cold is None:
                base, span, bits = hot
            else:
                base, span, bits = cold
            is_shared = False
        getrandbits = self._getrandbits
        offset = getrandbits(bits)
        while offset >= span:
            offset = getrandbits(bits)
        return (base + (offset & self._line_mask), is_shared)


def _draw(base: int, span: int) -> Tuple[int, int, int]:
    """A uniform draw over ``[base, base + span)``: ``(base, span, bits)``."""
    return (base, span, span.bit_length())


def _hot_cold_draws(base: int, hot_span: int, cold_span: int):
    """``hot_cold_address``'s two draws: the hot set, then the cold rest.

    The cold draw is ``None`` when the cold span adds nothing to the hot one.
    """
    hot = _draw(base, hot_span)
    if cold_span <= hot_span:
        return (hot, None)
    return (hot, _draw(base + hot_span, cold_span - hot_span))
