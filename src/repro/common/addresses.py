"""Address arithmetic and the simulated physical address-space layout.

The simulator works with flat integer physical and virtual addresses.  This
module provides the alignment helpers and :class:`AddressSpaceLayout`,
which carves the
simulated physical address space into the regions the paper relies on:

* per-VM private memory (user and kernel portions),
* a shared region inside each VM (for cache-to-cache transfer behaviour),
* the reserved *scratchpad* region used to save and restore VCPU state during
  mode transitions (Section 3.4.3 of the paper),
* the memory-resident Protection Assistance Table (PAT, Section 3.4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: Default page size used by the reproduction (the paper's PAT uses 8 KB pages).
DEFAULT_PAGE_SIZE = 8 * 1024

#: Default cache line size (64 bytes, matching the paper's PAB line granularity).
DEFAULT_LINE_SIZE = 64


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to a multiple of ``alignment``."""
    if alignment <= 0:
        raise ConfigurationError(f"alignment must be positive, got {alignment}")
    return value - (value % alignment)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to a multiple of ``alignment``."""
    if alignment <= 0:
        raise ConfigurationError(f"alignment must be positive, got {alignment}")
    remainder = value % alignment
    if remainder == 0:
        return value
    return value + alignment - remainder


@dataclass(frozen=True)
class Region:
    """A contiguous region of the simulated physical address space."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size

    def contains(self, address: int) -> bool:
        """True when ``address`` falls inside this region."""
        return self.base <= address < self.end

    def offset_address(self, offset: int) -> int:
        """Return ``base + offset``, checking bounds."""
        if offset < 0 or offset >= self.size:
            raise ConfigurationError(
                f"offset {offset:#x} outside region {self.name!r} of size {self.size:#x}"
            )
        return self.base + offset


@dataclass
class AddressSpaceLayout:
    """Layout of the simulated physical address space.

    The layout allocates, in order: one private region per VM (each with a
    user sub-region, kernel sub-region, and shared sub-region), the scratchpad
    used for VCPU state during mode transitions, and the PAT backing store.

    Parameters
    ----------
    vm_memory_bytes:
        Size of each VM's private physical memory region.
    num_vms:
        Number of guest VMs (one is used for single-OS experiments).
    scratchpad_bytes:
        Size of the reserved scratchpad region.
    page_size:
        Page size used when rounding regions.
    """

    vm_memory_bytes: int = 16 * 1024 * 1024
    num_vms: int = 2
    scratchpad_bytes: int = 1024 * 1024
    pat_bytes: int = 1024 * 1024
    page_size: int = DEFAULT_PAGE_SIZE
    shared_fraction: float = 0.25
    kernel_fraction: float = 0.25
    _regions: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_vms < 1:
            raise ConfigurationError("layout needs at least one VM region")
        if self.vm_memory_bytes < 4 * self.page_size:
            raise ConfigurationError("vm_memory_bytes is too small to be useful")
        cursor = 0
        for vm_id in range(self.num_vms):
            vm_base = cursor
            vm_size = align_up(self.vm_memory_bytes, self.page_size)
            kernel_size = align_up(
                int(vm_size * self.kernel_fraction), self.page_size
            )
            shared_size = align_up(
                int(vm_size * self.shared_fraction), self.page_size
            )
            user_size = vm_size - kernel_size - shared_size
            self._regions[f"vm{vm_id}"] = Region(f"vm{vm_id}", vm_base, vm_size)
            self._regions[f"vm{vm_id}.user"] = Region(
                f"vm{vm_id}.user", vm_base, user_size
            )
            self._regions[f"vm{vm_id}.shared"] = Region(
                f"vm{vm_id}.shared", vm_base + user_size, shared_size
            )
            self._regions[f"vm{vm_id}.kernel"] = Region(
                f"vm{vm_id}.kernel", vm_base + user_size + shared_size, kernel_size
            )
            cursor = vm_base + vm_size
        scratch_size = align_up(self.scratchpad_bytes, self.page_size)
        self._regions["scratchpad"] = Region("scratchpad", cursor, scratch_size)
        cursor += scratch_size
        pat_size = align_up(self.pat_bytes, self.page_size)
        self._regions["pat"] = Region("pat", cursor, pat_size)
        cursor += pat_size
        self._regions["__total__"] = Region("__total__", 0, cursor)

    @property
    def total_bytes(self) -> int:
        """Total simulated physical memory covered by the layout."""
        return self._regions["__total__"].size

    def region(self, name: str) -> Region:
        """Return a named region.

        Valid names are ``vm<N>``, ``vm<N>.user``, ``vm<N>.shared``,
        ``vm<N>.kernel``, ``scratchpad`` and ``pat``.
        """
        try:
            return self._regions[name]
        except KeyError as exc:
            raise ConfigurationError(f"unknown region {name!r}") from exc

    def vm_region(self, vm_id: int) -> Region:
        """Whole private region of VM ``vm_id``."""
        return self.region(f"vm{vm_id}")

    def user_region(self, vm_id: int) -> Region:
        """User-data portion of VM ``vm_id``."""
        return self.region(f"vm{vm_id}.user")

    def shared_region(self, vm_id: int) -> Region:
        """Shared-data portion of VM ``vm_id`` (touched by several VCPUs)."""
        return self.region(f"vm{vm_id}.shared")

    def kernel_region(self, vm_id: int) -> Region:
        """Kernel/OS portion of VM ``vm_id``."""
        return self.region(f"vm{vm_id}.kernel")

    def scratchpad_region(self) -> Region:
        """Scratchpad region used to hold VCPU state during mode switches."""
        return self.region("scratchpad")

    def pat_region(self) -> Region:
        """Region backing the Protection Assistance Table."""
        return self.region("pat")

    def owner_of(self, address: int) -> str:
        """Return the name of the top-level region owning ``address``."""
        for name, region in self._regions.items():
            if name == "__total__" or "." in name:
                continue
            if region.contains(address):
                return name
        raise ConfigurationError(f"address {address:#x} outside the simulated memory")

    def scratchpad_slot(self, slot_index: int, slot_bytes: int) -> Region:
        """Return a sub-region of the scratchpad for one VCPU save area."""
        scratch = self.scratchpad_region()
        base = scratch.base + slot_index * slot_bytes
        if base + slot_bytes > scratch.end:
            raise ConfigurationError(
                f"scratchpad slot {slot_index} (size {slot_bytes}) exceeds the "
                f"scratchpad region of {scratch.size} bytes"
            )
        return Region(f"scratchpad.slot{slot_index}", base, slot_bytes)
