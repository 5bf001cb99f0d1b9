"""A set-associative cache with LRU replacement.

The same class models every level (L1 I/D, private L2, shared L3); behaviour
differences between levels (write-through, exclusivity with the upper level,
sharing) are implemented by :class:`repro.mem.hierarchy.MemoryHierarchy`,
which owns the caches and orchestrates accesses between them.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice
from operator import attrgetter
from typing import Dict, Iterator, List, Optional

from repro.config.system import CacheConfig
from repro.errors import MemorySystemError
from repro.mem.lines import CacheLine, LineState

_BY_LAST_TOUCH = attrgetter("last_touch")
_LINE_ADDR = attrgetter("line_addr")
_STATE = attrgetter("state")
_DIRTY = attrgetter("dirty")
_COHERENT = attrgetter("coherent")
_STATES = tuple(LineState)
_STATE_CODES = {state: code for code, state in enumerate(_STATES)}
# The access and fill paths read these module-level names, never the enum
# class: on Python 3.10 and 3.11 ``EnumType`` defines ``__getattr__``, so each
# ``LineState.SHARED`` costs about 160-195 ns against about 17 ns for a global
# (timeit, 2-vCPU host; about 44 ns on 3.12).  ``repro.mem.hierarchy`` imports
# them too.
_SHARED = LineState.SHARED
_OWNED = LineState.OWNED
_MODIFIED = LineState.MODIFIED


class SetAssociativeCache:
    """A physically indexed, physically tagged, LRU set-associative cache."""

    def __init__(self, config: CacheConfig) -> None:
        config.validate()
        self.config = config
        self._num_sets = config.num_sets
        self._associativity = config.associativity
        self._line_bytes = config.line_bytes
        # The line size is validated to be a power of two, so line alignment
        # and set indexing reduce to bit operations on the (non-negative)
        # physical address.
        self._line_neg_mask = -config.line_bytes
        self._line_shift = config.line_bytes.bit_length() - 1
        # When the set count is also a power of two (every standard geometry)
        # the modulo reduces to a mask.
        if config.num_sets & (config.num_sets - 1) == 0:
            self._set_mask: Optional[int] = config.num_sets - 1
        else:
            self._set_mask = None
        self._sets: Dict[int, Dict[int, CacheLine]] = {}
        # Flat line-address -> line map mirroring ``_sets``.  Lookups and
        # touches -- by far the most frequent operations -- hit this single
        # dictionary instead of computing a set index and chasing two levels;
        # insert/invalidate keep both structures in sync.
        self._lines: Dict[int, CacheLine] = {}
        self._touch_counter = 0

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #

    def lookup(self, address: int) -> Optional[CacheLine]:
        """Return the line containing ``address`` without updating LRU state."""
        return self._lines.get(address & self._line_neg_mask)

    def touch(self, address: int) -> Optional[CacheLine]:
        """Return the line containing ``address`` and mark it most recently used."""
        line = self._lines.get(address & self._line_neg_mask)
        if line is not None:
            self._touch_counter = counter = self._touch_counter + 1
            line.last_touch = counter
        return line

    def insert(
        self,
        address: int,
        state: LineState = LineState.SHARED,
        dirty: bool = False,
        coherent: bool = True,
    ) -> Optional[CacheLine]:
        """Insert the line containing ``address``; return the evicted victim.

        If the line is already present its state/dirty/coherent bits are
        updated in place and no eviction occurs.  When the set is full, the
        least recently used line is evicted and returned so the hierarchy can
        handle any required writeback or victim insertion.
        """
        if state is LineState.INVALID:
            raise MemorySystemError("cannot insert a line in the INVALID state")
        line_addr = address & self._line_neg_mask
        self._touch_counter = counter = self._touch_counter + 1
        existing = self._lines.get(line_addr)
        if existing is not None:
            existing.state = state
            existing.dirty = existing.dirty or dirty
            existing.coherent = coherent
            existing.last_touch = counter
            return None
        tag = line_addr >> self._line_shift
        index = tag & self._set_mask if self._set_mask is not None else tag % self._num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = {}
        victim: Optional[CacheLine] = None
        if len(cache_set) >= self._associativity:
            victim = min(cache_set.values(), key=_BY_LAST_TOUCH)
            del cache_set[victim.line_addr]
            del self._lines[victim.line_addr]
        cache_set[line_addr] = self._lines[line_addr] = CacheLine(
            line_addr, state, dirty, coherent, counter
        )
        return victim

    def fill_shared(self, address: int, coherent: bool = True) -> None:
        """Insert a clean SHARED line, dropping any victim.

        Specialised for the write-through L1s, whose victims never need a
        writeback: this behaves exactly like ``insert(address,
        LineState.SHARED, dirty=False, coherent=coherent)`` with the returned
        victim discarded.
        """
        line_addr = address & self._line_neg_mask
        existing = self._lines.get(line_addr)
        if existing is None:
            self.fill_absent(line_addr, coherent)
            return
        # Same field updates as insert() with dirty=False: the existing dirty
        # bit is left alone.
        self._touch_counter = counter = self._touch_counter + 1
        existing.state = _SHARED
        existing.coherent = coherent
        existing.last_touch = counter

    def fill_absent(self, line_addr: int, coherent: bool = True) -> None:
        """:meth:`fill_shared` of a line-aligned address known to be absent.

        Skips the presence check, for callers that have just missed on the
        line.  A victim's line object is recycled for the new line instead of
        allocating one (the victim is unreachable once evicted, so the reuse
        is unobservable).
        """
        self._touch_counter = counter = self._touch_counter + 1
        tag = line_addr >> self._line_shift
        index = tag & self._set_mask if self._set_mask is not None else tag % self._num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = {}
        lines = self._lines
        if len(cache_set) >= self._associativity:
            if len(cache_set) == 2:
                # Two-way sets (the L1 geometry): direct compare beats min().
                first, second = cache_set.values()
                victim = second if second.last_touch < first.last_touch else first
            else:
                victim = min(cache_set.values(), key=_BY_LAST_TOUCH)
            del cache_set[victim.line_addr]
            del lines[victim.line_addr]
            victim.line_addr = line_addr
            victim.state = _SHARED
            victim.dirty = False
            victim.coherent = coherent
            victim.last_touch = counter
            cache_set[line_addr] = lines[line_addr] = victim
        else:
            cache_set[line_addr] = lines[line_addr] = CacheLine(
                line_addr, _SHARED, False, coherent, counter
            )

    def invalidate(self, address: int) -> Optional[CacheLine]:
        """Remove the line containing ``address`` and return it (or ``None``)."""
        line_addr = address & self._line_neg_mask
        line = self._lines.pop(line_addr, None)
        if line is not None:
            tag = line_addr >> self._line_shift
            index = tag & self._set_mask if self._set_mask is not None else tag % self._num_sets
            del self._sets[index][line_addr]
        return line

    def clear(self) -> int:
        """Drop every line; return the number of lines dropped."""
        dropped = len(self._lines)
        self._sets.clear()
        self._lines.clear()
        return dropped

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def snapshot(self) -> tuple:
        """A packed, immutable copy of the contents and the LRU clock.

        Lines are stored field by field in flat arrays, set by set in the
        sets' own order (empty sets included), so :meth:`restore` rebuilds
        the exact iteration and replacement order.
        """
        lines = list(chain.from_iterable(map(dict.values, self._sets.values())))
        return (
            array("q", self._sets),
            array("q", map(len, self._sets.values())),
            array("q", map(_LINE_ADDR, lines)),
            array("q", map(_BY_LAST_TOUCH, lines)),
            bytes(map(_STATE_CODES.__getitem__, map(_STATE, lines))),
            bytes(map(_DIRTY, lines)),
            bytes(map(_COHERENT, lines)),
            self._touch_counter,
        )

    def restore(self, snapshot: tuple) -> None:
        """Rebuild, in place, the state a :meth:`snapshot` recorded."""
        indices, sizes, addrs, touches, states, dirty, coherent, touch_counter = snapshot
        lines = list(
            map(
                CacheLine,
                addrs,
                map(_STATES.__getitem__, states),
                map(bool, dirty),
                map(bool, coherent),
                touches,
            )
        )
        self._lines.clear()
        self._lines.update(zip(addrs, lines))
        self._sets.clear()
        remaining = zip(addrs, lines)
        for index, size in zip(indices, sizes):
            self._sets[index] = dict(islice(remaining, size))
        self._touch_counter = touch_counter

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def lines(self) -> Iterator[CacheLine]:
        """Iterate over every resident line (order unspecified)."""
        for cache_set in self._sets.values():
            yield from cache_set.values()

    def resident_lines(self) -> List[CacheLine]:
        """A list copy of every resident line (useful for flush operations)."""
        return list(self.lines())

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return len(self._lines)

    @property
    def capacity_lines(self) -> int:
        """Total number of lines the cache can hold."""
        return self.config.num_lines

    def contains(self, address: int) -> bool:
        """True when the line containing ``address`` is resident."""
        return self.lookup(address) is not None
