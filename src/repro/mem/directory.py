"""MOSI coherence directory.

The paper's target keeps L2 shadow tags co-located with each L3 bank and runs
a MOSI directory protocol over the point-to-point interconnect.  The
reproduction models the directory at line granularity: for each line it
tracks which core's private hierarchy (if any) *owns* the line (holds it in
M or O) and which cores share it.  The hierarchy consults the directory to
decide whether a miss is served by a cache-to-cache transfer (3-hop), the
shared L3 (2-hop), or memory, and to invalidate sharers on stores.

Reunion mute cores issue *incoherent* requests that must not change directory
state; the hierarchy therefore only calls the mutating methods for coherent
requests.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Dict, Optional, Set


@dataclass(slots=True)
class DirectoryEntry:
    """Tracking state for one line."""

    owner: Optional[int] = None
    sharers: Set[int] = field(default_factory=set)


class Directory:
    """Line-granularity MOSI directory."""

    def __init__(self, line_bytes: int = 64) -> None:
        self._line_bytes = line_bytes
        # Line alignment is a bit operation when the line size is a power of
        # two (the hierarchy always configures one); fall back to the modulo
        # form otherwise.
        self._line_neg_mask = -line_bytes if line_bytes & (line_bytes - 1) == 0 else None
        self._entries: Dict[int, DirectoryEntry] = {}

    def entry(self, address: int) -> DirectoryEntry:
        """Return (creating if needed) the entry for the line of ``address``."""
        mask = self._line_neg_mask
        line = address & mask if mask is not None else address - address % self._line_bytes
        entry = self._entries.get(line)
        if entry is None:
            entry = self._entries[line] = DirectoryEntry()
        return entry

    def peek(self, address: int) -> Optional[DirectoryEntry]:
        """Return the entry for the line of ``address`` without creating it."""
        mask = self._line_neg_mask
        line = address & mask if mask is not None else address - address % self._line_bytes
        return self._entries.get(line)

    def owner_of(self, address: int) -> Optional[int]:
        """Core currently owning the line (M or O state), or ``None``."""
        entry = self.peek(address)
        return entry.owner if entry is not None else None

    # ------------------------------------------------------------------ #
    # Coherent transitions
    # ------------------------------------------------------------------ #

    def record_shared_fetch(self, address: int, core_id: int) -> None:
        """Core ``core_id`` fetched the line for reading."""
        entry = self.entry(address)
        if entry.owner != core_id:
            entry.sharers.add(core_id)

    def record_exclusive_fetch(self, address: int, core_id: int) -> Set[int]:
        """Core ``core_id`` fetched the line for writing.

        Returns the set of other cores that must invalidate their copies (the
        hierarchy charges the invalidation latency and performs the cache
        invalidations).
        """
        entry = self.entry(address)
        to_invalidate = set(entry.sharers)
        if entry.owner is not None:
            to_invalidate.add(entry.owner)
        to_invalidate.discard(core_id)
        entry.owner = core_id
        entry.sharers.clear()
        return to_invalidate

    def record_downgrade(self, address: int, core_id: int) -> None:
        """Owner ``core_id`` was downgraded to a sharer (served a C2C read)."""
        entry = self.entry(address)
        if entry.owner == core_id:
            entry.owner = None
            entry.sharers.add(core_id)

    def record_eviction(self, address: int, core_id: int) -> None:
        """Core ``core_id`` no longer holds the line."""
        mask = self._line_neg_mask
        line = address & mask if mask is not None else address - address % self._line_bytes
        entry = self._entries.get(line)
        if entry is None:
            return
        if entry.owner == core_id:
            entry.owner = None
        entry.sharers.discard(core_id)

    def snapshot(self) -> tuple:
        """A packed, immutable copy of every entry (see :meth:`restore`)."""
        entries = list(self._entries.values())
        return (
            array("q", self._entries),
            array("i", [-1 if entry.owner is None else entry.owner for entry in entries]),
            array("i", [len(entry.sharers) for entry in entries]),
            array("i", chain.from_iterable(entry.sharers for entry in entries)),
        )

    def restore(self, snapshot: tuple) -> None:
        """Rebuild, in place, the entries a :meth:`snapshot` recorded."""
        lines, owners, sharer_counts, sharer_ids = snapshot
        remaining = iter(sharer_ids)
        self._entries.clear()
        self._entries.update(
            zip(
                lines,
                map(
                    DirectoryEntry,
                    [None if owner < 0 else owner for owner in owners],
                    [
                        {next(remaining)} if count == 1 else set(islice(remaining, count))
                        for count in sharer_counts
                    ],
                ),
            )
        )

    def __len__(self) -> int:
        return len(self._entries)
