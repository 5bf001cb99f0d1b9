"""Protection Assistance Table (PAT).

The PAT is similar to an inverse page table: one bit per physical page, where
``1`` means the page may only be written by applications executing in
reliable mode and ``0`` means any software (including performance-mode
applications) may potentially write it.  At one bit per 8 KB page the PAT
costs 16 MB per TB of physical memory and lives in ordinary cacheable memory;
system software maintains it alongside its page table.
"""

from __future__ import annotations

from typing import Iterator, Set

from repro.common.addresses import DEFAULT_PAGE_SIZE, Region
from repro.errors import ProtectionError


class ProtectionAssistanceTable:
    """The memory-resident reliable-page bitmap maintained by system software."""

    def __init__(
        self,
        physical_memory_bytes: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        backing_region: Region | None = None,
    ) -> None:
        if physical_memory_bytes <= 0:
            raise ProtectionError("physical memory size must be positive")
        if page_size <= 0 or page_size & (page_size - 1):
            raise ProtectionError("page size must be a power of two")
        self.physical_memory_bytes = physical_memory_bytes
        self.page_size = page_size
        self.num_pages = (physical_memory_bytes + page_size - 1) // page_size
        #: Physical pages whose PAT bit is 1 (reliable-only).
        self._reliable_pages: Set[int] = set()
        #: Region of physical memory where the PAT itself is stored; PAB
        #: misses fetch their entries from here through the cache hierarchy.
        self.backing_region = backing_region

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #

    @property
    def size_bytes(self) -> int:
        """Bytes of memory occupied by the PAT bitmap (one bit per page)."""
        return (self.num_pages + 7) // 8

    def entry_address(self, physical_page: int, entry_bytes: int = 64) -> int:
        """Physical address of the PAT block holding ``physical_page``'s bit.

        Used by the PAB to issue a cacheable fill request on a miss.  When no
        backing region was provided the PAT is addressed from physical 0,
        which only matters for statistics.
        """
        self._check_page(physical_page)
        block_index = physical_page // (entry_bytes * 8)
        base = self.backing_region.base if self.backing_region is not None else 0
        return base + block_index * entry_bytes

    def _check_page(self, physical_page: int) -> None:
        if not 0 <= physical_page < self.num_pages:
            raise ProtectionError(
                f"physical page {physical_page:#x} outside the {self.num_pages}-page PAT"
            )

    # ------------------------------------------------------------------ #
    # System-software interface
    # ------------------------------------------------------------------ #

    def mark_reliable_page(self, physical_page: int) -> None:
        """Set the PAT bit: only reliable-mode software may write the page."""
        self._check_page(physical_page)
        self._reliable_pages.add(physical_page)

    def mark_reliable_region(self, region: Region) -> int:
        """Mark every page of ``region`` reliable-only; return the page count."""
        first = region.base // self.page_size
        last = (region.end - 1) // self.page_size
        for page in range(first, last + 1):
            self.mark_reliable_page(page)
        return last - first + 1

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def is_reliable_only(self, physical_page: int) -> bool:
        """True when the page may only be written in reliable mode."""
        self._check_page(physical_page)
        return physical_page in self._reliable_pages

    def is_reliable_only_address(self, physical_address: int) -> bool:
        """Like :meth:`is_reliable_only`, starting from a byte address."""
        return self.is_reliable_only(physical_address // self.page_size)

    def reliable_pages(self) -> Iterator[int]:
        """Iterate over all reliable-only physical pages."""
        return iter(sorted(self._reliable_pages))

    @property
    def reliable_page_count(self) -> int:
        """Number of pages currently marked reliable-only."""
        return len(self._reliable_pages)
