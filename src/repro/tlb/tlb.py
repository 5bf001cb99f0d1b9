"""Hardware-filled translation lookaside buffer.

The paper models a hardware-filled TLB (like the Ideal SPARC configuration of
Wells & Sohi) so that TLB refills do not inflate the number of serialising
instructions.  The reproduction does the same: a TLB miss costs a fixed
hardware-walk latency and never traps to software.

A fault in a cached entry can change the physical page or the permission
bits, which is precisely the failure mode the PAB is designed to catch for
performance-mode cores; the fault injector models it as a store whose
physical address is redirected (:mod:`repro.faults.injector`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.config.system import TlbConfig
from repro.errors import ProtectionError
from repro.tlb.page_table import PageFlags, PageTable

# Integer values of the permission bits consulted on every translation; doing
# the permission arithmetic on plain ints avoids two Flag.__and__ enum
# constructions per access.
_USER_WRITE = PageFlags.USER_WRITE.value
_PRIVILEGED_ONLY = PageFlags.PRIVILEGED_ONLY.value


@dataclass(slots=True)
class TlbEntry:
    """One cached translation."""

    virtual_page: int
    physical_page: int
    flags: PageFlags
    domain: int
    last_touch: int = 0


@dataclass(slots=True)
class TranslationResult:
    """Outcome of one TLB translation."""

    physical_address: int
    flags: PageFlags
    domain: int
    hit: bool
    latency: int
    #: True when the access violates the TLB's permission check (the core
    #: raises a trap); hardware faults may erroneously clear this.
    permitted: bool


class TranslationLookasideBuffer:
    """A small fully-associative, hardware-filled TLB."""

    def __init__(self, config: TlbConfig, page_table: PageTable) -> None:
        config.validate()
        self.config = config
        self.page_table = page_table
        self._entries: Dict[int, TlbEntry] = {}
        self._touch = 0
        self._page_size = page_table.page_size
        self._fill_latency = config.fill_latency
        # Page sizes are powers of two in every configuration, which turns
        # the page/offset split into shifts and masks (identical results for
        # the non-negative addresses the workloads generate); keep the
        # division fallback for exotic page sizes.
        if self._page_size & (self._page_size - 1) == 0:
            self._page_shift: Optional[int] = self._page_size.bit_length() - 1
            self._page_mask = self._page_size - 1
        else:
            self._page_shift = None
            self._page_mask = 0

    @property
    def page_size(self) -> int:
        """Page size of the underlying page table."""
        return self.page_table.page_size

    # ------------------------------------------------------------------ #
    # Translation
    # ------------------------------------------------------------------ #

    def _evict_if_needed(self) -> None:
        if len(self._entries) < self.config.entries:
            return
        victim = min(self._entries.values(), key=lambda entry: entry.last_touch)
        del self._entries[victim.virtual_page]

    def _fill(self, virtual_page: int) -> TlbEntry:
        pte = self.page_table.lookup_page(virtual_page)
        if pte is None:
            raise ProtectionError(f"TLB fill for unmapped page {virtual_page:#x}")
        self._evict_if_needed()
        self._touch += 1
        entry = TlbEntry(
            virtual_page=virtual_page,
            physical_page=pte.physical_page,
            flags=pte.flags,
            domain=pte.domain,
            last_touch=self._touch,
        )
        self._entries[virtual_page] = entry
        return entry

    def translate_raw(self, virtual_address: int, is_store: bool, privileged: bool):
        """Translate without building a :class:`TranslationResult`.

        Returns ``(physical_address, flags, domain, hit, latency,
        permitted)``; the behaviour is identical to :meth:`translate`, which
        wraps this.  The core timing model's hot
        loop consumes the tuple directly.
        """
        page_shift = self._page_shift
        if page_shift is not None:
            virtual_page = virtual_address >> page_shift
        else:
            virtual_page = virtual_address // self._page_size
        entry = self._entries.get(virtual_page)
        if entry is None:
            hit = False
            latency = self._fill_latency
            entry = self._fill(virtual_page)
        else:
            hit = True
            latency = 0
            self._touch += 1
            entry.last_touch = self._touch

        flags = entry.flags
        permitted = True
        if not privileged:
            flag_bits = flags._value_
            if is_store and not (flag_bits & _USER_WRITE):
                permitted = False
            if flag_bits & _PRIVILEGED_ONLY:
                permitted = False

        if page_shift is not None:
            physical = (entry.physical_page << page_shift) + (
                virtual_address & self._page_mask
            )
        else:
            page_size = self._page_size
            physical = entry.physical_page * page_size + virtual_address % page_size
        return (physical, flags, entry.domain, hit, latency, permitted)

    def translate(
        self, virtual_address: int, is_store: bool, privileged: bool
    ) -> TranslationResult:
        """Translate ``virtual_address`` and perform the permission check."""
        physical, flags, domain, hit, latency, permitted = self.translate_raw(
            virtual_address, is_store, privileged
        )
        return TranslationResult(
            physical_address=physical,
            flags=flags,
            domain=domain,
            hit=hit,
            latency=latency,
            permitted=permitted,
        )

    @property
    def occupancy(self) -> int:
        """Number of resident translations."""
        return len(self._entries)
