"""Protection Assistance Buffer (PAB).

The PAB is a small, cache-like hardware structure private to each core.  Each
entry is physically tagged and holds 64 bytes (one cache line) of PAT bits,
i.e. the reliable-only bits for 512 contiguous 8 KB pages.  For a core
executing in performance mode, every store write-through consults the PAB
either in parallel with or serially before the L2 access:

* a **hit** whose bit is 0 means the store has permission (the TLB and PAB
  agree) and proceeds;
* a **hit** whose bit is 1 means the physical address belongs to reliable
  software -- an exception is raised to system software before the store can
  reach the L2;
* a **miss** fetches the PAT block through the ordinary cacheable hierarchy
  and then repeats the check.

The PAB is not consulted in reliable (DMR) mode.  The paper keeps it
coherent with TLB demaps and PAT updates; a simulated machine never demaps a
translation or changes a PAT bit once it is built, so no invalidation is
modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.config.system import PabConfig, PabLookupMode
from repro.errors import ProtectionError
from repro.mem.hierarchy import MemoryHierarchy
from repro.protection.pat import ProtectionAssistanceTable


@dataclass(slots=True)
class _PabEntry:
    """One PAB entry: a tag plus the cached block of PAT bits."""

    block_index: int
    reliable_bits: int  # bitmap over the pages covered by this block
    last_touch: int = 0


@dataclass(slots=True)
class PabCheckResult:
    """Outcome of one PAB store-permission check."""

    allowed: bool
    hit: bool
    latency: int
    physical_page: int
    #: True when the latency is exposed on the store path (serial lookup);
    #: parallel lookups overlap with the L2 access and add no latency.
    serialized: bool


class ProtectionAssistanceBuffer:
    """Per-core cache of PAT entries used to re-validate store permissions."""

    def __init__(
        self,
        config: PabConfig,
        pat: ProtectionAssistanceTable,
        core_id: int,
        hierarchy: Optional[MemoryHierarchy] = None,
    ) -> None:
        config.validate()
        if pat.page_size != config.page_bytes:
            raise ProtectionError(
                "PAB and PAT disagree on the page size "
                f"({config.page_bytes} vs {pat.page_size})"
            )
        self.config = config
        self.pat = pat
        self.core_id = core_id
        self.hierarchy = hierarchy
        self._entries: Dict[int, _PabEntry] = {}
        self._touch = 0

    # ------------------------------------------------------------------ #
    # Geometry helpers
    # ------------------------------------------------------------------ #

    @property
    def pages_per_entry(self) -> int:
        """Number of pages whose bits one PAB entry caches."""
        return self.config.pages_per_entry

    def _block_of(self, physical_page: int) -> int:
        return physical_page // self.pages_per_entry

    def _build_block_bits(self, block_index: int) -> int:
        """Assemble the reliable-only bitmap for one PAT block."""
        bits = 0
        first_page = block_index * self.pages_per_entry
        for offset in range(self.pages_per_entry):
            page = first_page + offset
            if page >= self.pat.num_pages:
                break
            if self.pat.is_reliable_only(page):
                bits |= 1 << offset
        return bits

    # ------------------------------------------------------------------ #
    # Store permission check
    # ------------------------------------------------------------------ #

    def _evict_if_needed(self) -> None:
        if len(self._entries) < self.config.entries:
            return
        victim = min(self._entries.values(), key=lambda entry: entry.last_touch)
        del self._entries[victim.block_index]

    def _fill(self, block_index: int) -> tuple[_PabEntry, int]:
        """Fetch a PAT block through the cache hierarchy; return (entry, latency)."""
        latency = 0
        if self.hierarchy is not None:
            entry_address = self.pat.entry_address(
                block_index * self.pages_per_entry, self.config.entry_bytes
            )
            result = self.hierarchy.load(self.core_id, entry_address)
            latency = result.latency
        self._evict_if_needed()
        self._touch += 1
        entry = _PabEntry(
            block_index=block_index,
            reliable_bits=self._build_block_bits(block_index),
            last_touch=self._touch,
        )
        self._entries[block_index] = entry
        return entry, latency

    def check_store(self, physical_address: int) -> PabCheckResult:
        """Re-validate the permission of a performance-mode store.

        Returns whether the store may proceed and the latency exposed on the
        store path (zero for parallel lookups that hit; the PAT fill latency
        is always exposed because the store cannot proceed unchecked).
        """
        physical_page = physical_address // self.config.page_bytes
        if physical_page >= self.pat.num_pages:
            # An address outside the installed physical memory can only be the
            # product of a fault; treat it as a violation.
            return PabCheckResult(
                allowed=False,
                hit=False,
                latency=self.config.serial_lookup_latency,
                physical_page=physical_page,
                serialized=True,
            )
        block_index = self._block_of(physical_page)
        entry = self._entries.get(block_index)
        hit = entry is not None
        fill_latency = 0
        if entry is None:
            entry, fill_latency = self._fill(block_index)
        else:
            self._touch += 1
            entry.last_touch = self._touch

        bit = (entry.reliable_bits >> (physical_page % self.pages_per_entry)) & 1
        allowed = bit == 0

        serialized = self.config.lookup_mode is PabLookupMode.SERIAL
        lookup_latency = self.config.serial_lookup_latency if serialized else 0
        return PabCheckResult(
            allowed=allowed,
            hit=hit,
            latency=lookup_latency + fill_latency,
            physical_page=physical_page,
            serialized=serialized or fill_latency > 0,
        )

    @property
    def occupancy(self) -> int:
        """Number of resident PAB entries."""
        return len(self._entries)

    @property
    def mapped_bytes(self) -> int:
        """Bytes of physical memory covered by a fully populated PAB."""
        return self.config.mapped_bytes
