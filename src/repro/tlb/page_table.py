"""Page table with per-page permissions and reliability domains.

System software (the OS or VMM) owns the page table.  The reproduction keeps
the mapping identity (virtual page == physical page) because the paper's
mechanisms care about *permissions* and *ownership*, not about the shape of
the mapping; faults are modelled as corruption of the cached translation in
the TLB, not of the page table itself (the page table lives in ECC-protected
memory).

Each entry records:

* whether user-level code may write the page,
* which guest VM (domain) owns the page,
* whether the page may only be touched by software running in reliable mode
  (this is the information the system software distils into the Protection
  Assistance Table).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Flag, auto
from typing import Dict, Iterator, Optional, Tuple

from repro.common.addresses import DEFAULT_PAGE_SIZE, Region
from repro.errors import ProtectionError


class PageFlags(Flag):
    """Permission bits of one page."""

    NONE = 0
    USER_READ = auto()
    USER_WRITE = auto()
    PRIVILEGED_ONLY = auto()
    #: The page belongs to software that requires reliable (DMR) execution;
    #: stores from performance-mode cores must never reach it.
    RELIABLE_ONLY = auto()


@dataclass(slots=True)
class PageTableEntry:
    """One page's translation and permissions."""

    virtual_page: int
    physical_page: int
    flags: PageFlags
    domain: int

    @property
    def user_writable(self) -> bool:
        """True when user-level code may store to the page."""
        return bool(self.flags & PageFlags.USER_WRITE)

    @property
    def reliable_only(self) -> bool:
        """True when only reliable-mode software may write the page."""
        return bool(self.flags & PageFlags.RELIABLE_ONLY)


class PageTable:
    """The system software's page table for the whole simulated machine."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise ProtectionError(f"page size must be a power of two, got {page_size}")
        self.page_size = page_size
        self._entries: Dict[int, PageTableEntry] = {}

    def _page_of(self, address: int) -> int:
        return address // self.page_size

    # ------------------------------------------------------------------ #
    # Mapping management (system-software interface)
    # ------------------------------------------------------------------ #

    def map_page(
        self,
        virtual_page: int,
        flags: PageFlags,
        domain: int,
        physical_page: Optional[int] = None,
    ) -> PageTableEntry:
        """Install (or replace) the mapping for ``virtual_page``."""
        entry = PageTableEntry(
            virtual_page=virtual_page,
            physical_page=virtual_page if physical_page is None else physical_page,
            flags=flags,
            domain=domain,
        )
        self._entries[virtual_page] = entry
        return entry

    def map_region(self, region: Region, flags: PageFlags, domain: int) -> int:
        """Map every page of ``region`` with the given flags; return the count."""
        first = region.base // self.page_size
        last = (region.end - 1) // self.page_size
        for page in range(first, last + 1):
            self.map_page(page, flags, domain)
        return last - first + 1

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def lookup_page(self, virtual_page: int) -> Optional[PageTableEntry]:
        """Return the entry for ``virtual_page`` or ``None``."""
        return self._entries.get(virtual_page)

    def lookup_address(self, virtual_address: int) -> Optional[PageTableEntry]:
        """Return the entry covering ``virtual_address`` or ``None``."""
        return self._entries.get(self._page_of(virtual_address))

    def translate(self, virtual_address: int) -> Tuple[int, PageTableEntry]:
        """Translate an address; raises when the page is unmapped."""
        entry = self.lookup_address(virtual_address)
        if entry is None:
            raise ProtectionError(f"address {virtual_address:#x} is not mapped")
        offset = virtual_address % self.page_size
        return entry.physical_page * self.page_size + offset, entry

    def entries(self) -> Iterator[PageTableEntry]:
        """Iterate over every mapping."""
        return iter(self._entries.values())

    def reliable_pages(self) -> Iterator[int]:
        """Physical page numbers writable only by reliable-mode software."""
        for entry in self._entries.values():
            if entry.reliable_only:
                yield entry.physical_page

    def __len__(self) -> int:
        return len(self._entries)
