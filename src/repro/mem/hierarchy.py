"""The three-level cache hierarchy of the target multicore.

Structure (Section 4.1 of the paper):

* per-core split write-through L1 I/D caches,
* per-core private L2,
* one shared L3 that maintains **exclusion** with the private L2s (like the
  IBM Power5 / AMD quad-core Opteron): a line lives either in some core's L2
  or in the L3, not both,
* a MOSI directory (shadow tags co-located with the L3) over a point-to-point
  interconnect,
* flat DRAM behind a bandwidth-limited off-chip link.

Two access paths are provided:

``coherent=True``
    Normal requests (non-DMR cores and Reunion vocal cores).  These update
    directory state, invalidate remote sharers on stores, and move lines
    between the L2s and the exclusive L3.

``coherent=False``
    Reunion *mute* requests.  They are best-effort: they may read data from
    the owner's L2 (a 3-hop cache-to-cache transfer) or from the L3/DRAM, but
    they never change the directory, never invalidate anybody, and every line
    they bring into the mute's private hierarchy is marked incoherent so it
    can never be written back.

The class also implements the line-by-line L2 flush used when an MMM-TP pair
leaves DMR mode (Section 3.4.3): each frame of the L2 is inspected at one
line per cycle, coherent dirty lines are written back to the L3, and
incoherent lines are discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.stats import StatSet
from repro.config.system import SystemConfig
from repro.errors import MemorySystemError
from repro.mem.cache import (
    _BY_LAST_TOUCH,
    _MODIFIED,
    _OWNED,
    _SHARED,
    SetAssociativeCache,
)
from repro.mem.directory import Directory, DirectoryEntry
from repro.mem.dram import MainMemory
from repro.mem.interconnect import Interconnect
from repro.mem.lines import CacheLine, LineState


@dataclass(slots=True)
class AccessResult:
    """Outcome of one data access through the hierarchy."""

    latency: int
    level: str


@dataclass(slots=True)
class FlushResult:
    """Outcome of flushing one core's private L2."""

    cycles: int
    lines_inspected: int
    dirty_writebacks: int
    incoherent_dropped: int


class MemoryHierarchy:
    """The shared memory system used by every core of the simulated chip."""

    def __init__(self, config: SystemConfig) -> None:
        config.validate()
        self.config = config
        self.num_cores = config.num_cores
        self.line_bytes = config.l2.line_bytes
        self.l1d: List[SetAssociativeCache] = [
            SetAssociativeCache(config.l1d) for _ in range(self.num_cores)
        ]
        self.l1i: List[SetAssociativeCache] = [
            SetAssociativeCache(config.l1i) for _ in range(self.num_cores)
        ]
        self.l2: List[SetAssociativeCache] = [
            SetAssociativeCache(config.l2) for _ in range(self.num_cores)
        ]
        self.l3 = SetAssociativeCache(config.l3)
        self.directory = Directory(line_bytes=self.line_bytes)
        self.interconnect = Interconnect(
            config.interconnect, config.memory, line_bytes=self.line_bytes
        )
        self.memory = MainMemory(config.memory)
        # The memory system's one set of counters, with the interconnect's
        # and the DRAM's (see merged_stats); the caches and the directory keep
        # none.  The access paths bump the dict directly rather than calling
        # StatSet.add once or more per data access.
        self.stats = StatSet()
        self._counts = self.stats.counters
        # Per-access constants hoisted out of the access paths: the line size
        # is a validated power of two, and the config is immutable.
        self._line_neg_mask = -self.line_bytes
        # The directory's entry map is created once and only ever mutated in
        # place, so the miss paths can consult it directly (addresses reaching
        # them are already line-aligned, making peek()'s alignment a no-op).
        self._dir_entries = self.directory._entries
        self._l1d_hit_latency = config.l1d.hit_latency
        self._l2_hit_latency = config.l2.hit_latency
        self._l3_hit_latency = config.l3.hit_latency
        # Interconnect latencies are pure functions of the immutable config;
        # the miss paths use the precomputed values.
        self._c2c_latency = self.interconnect.cache_to_cache_latency(
            self._l3_hit_latency, self._l2_hit_latency
        )
        self._inv_latency = self.interconnect.invalidation_latency(1)

    # ------------------------------------------------------------------ #
    # Window management (bandwidth accounting)
    # ------------------------------------------------------------------ #

    def begin_window(self, window_cycles: int) -> None:
        """Open a new bandwidth accounting window (one scheduling quantum)."""
        self.interconnect.begin_window(window_cycles)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _check_core(self, core_id: int) -> None:
        if not 0 <= core_id < self.num_cores:
            raise MemorySystemError(
                f"core {core_id} outside the configured {self.num_cores}-core chip"
            )

    def _fill_l2(
        self, core_id: int, line_addr: int, state: LineState, dirty: bool, coherent: bool
    ) -> None:
        """Fill a line the core's L2 has just missed on, pushing its victim down.

        One flat pass doing what ``SetAssociativeCache.insert`` on the L2, the
        inclusive-L1 invalidation of the LRU victim, the victim's directory
        eviction and its insert into the exclusive L3 did as separate calls:
        cache contents, LRU stamps, directory state and the hierarchy's
        counters evolve exactly as through them.  Every caller has just missed
        in this L2, so the line is never already resident.  A coherent
        victim's line object becomes the L3 line (it is unreachable once
        evicted, so the reuse is unobservable), as ``fill_absent`` recycles L1
        victims; an incoherent (mute-fetched) victim is dropped.
        """
        l2 = self.l2[core_id]
        l2._touch_counter = counter = l2._touch_counter + 1
        tag = line_addr >> l2._line_shift
        mask = l2._set_mask
        index = tag & mask if mask is not None else tag % l2._num_sets
        cache_set = l2._sets.get(index)
        if cache_set is None:
            cache_set = l2._sets[index] = {}
        l2_lines = l2._lines
        victim = None
        if len(cache_set) >= l2._associativity:
            victim = min(cache_set.values(), key=_BY_LAST_TOUCH)
            del cache_set[victim.line_addr]
            del l2_lines[victim.line_addr]
        cache_set[line_addr] = l2_lines[line_addr] = CacheLine(
            line_addr, state, dirty, coherent, counter
        )
        if victim is None:
            return

        # Keep the L1s inclusive in the L2.  The L1D shares the L2's line
        # size; the L1I's is not constrained, so its key is re-aligned.
        victim_addr = victim.line_addr
        l1d = self.l1d[core_id]
        if victim_addr in l1d._lines:
            l1d.invalidate(victim_addr)
        l1i = self.l1i[core_id]
        if (victim_addr & l1i._line_neg_mask) in l1i._lines:
            l1i.invalidate(victim_addr)

        entry = self._dir_entries.get(victim_addr)
        if entry is not None:
            if entry.owner == core_id:
                entry.owner = None
            entry.sharers.discard(core_id)

        counts = self._counts
        if not victim.coherent:
            counts["l2.incoherent_victims_dropped"] += 1
            return
        l3 = self.l3
        l3._touch_counter = l3_counter = l3._touch_counter + 1
        l3_lines = l3._lines
        existing = l3_lines.get(victim_addr)
        if existing is not None:
            # A clean copy forwarded to another L2 can still sit in the L3.
            existing.state = victim.state
            existing.dirty = existing.dirty or victim.dirty
            existing.coherent = True
            existing.last_touch = l3_counter
            counts["l2.victims_to_l3"] += 1
            return
        tag = victim_addr >> l3._line_shift
        mask = l3._set_mask
        index = tag & mask if mask is not None else tag % l3._num_sets
        l3_set = l3._sets.get(index)
        if l3_set is None:
            l3_set = l3._sets[index] = {}
        l3_victim = None
        if len(l3_set) >= l3._associativity:
            l3_victim = min(l3_set.values(), key=_BY_LAST_TOUCH)
            del l3_set[l3_victim.line_addr]
            del l3_lines[l3_victim.line_addr]
        victim.last_touch = l3_counter
        l3_set[victim_addr] = l3_lines[victim_addr] = victim
        counts["l2.victims_to_l3"] += 1
        if l3_victim is not None and l3_victim.needs_writeback:
            self.interconnect.record_offchip_transfer()
            self.memory.writeback_latency(self.interconnect.offchip_contention_factor())
            counts["l3.writebacks"] += 1

    def _invalidate_remote_copies(self, line_addr: int, cores: set[int]) -> None:
        counts = self._counts
        for other in cores:
            self.l1d[other].invalidate(line_addr)
            self.l1i[other].invalidate(line_addr)
            self.l2[other].invalidate(line_addr)
            counts["remote_invalidations"] += 1

    # ------------------------------------------------------------------ #
    # Coherent access path (normal and vocal cores)
    # ------------------------------------------------------------------ #

    def _remote_holder(
        self, entry: DirectoryEntry, line_addr: int, requester: int
    ) -> Optional[int]:
        """Find a remote private L2 currently holding the line of ``entry``.

        The directory's shadow tags know both the owner (M/O) and the sharers
        of a line; because the L3 is exclusive with the L2s, a line held only
        by sharers is *not* in the L3 and must be forwarded from one of them
        (a clean cache-to-cache transfer).  The owner is preferred when there
        is one (dirty cache-to-cache transfer).  Which sharer forwards is not
        observable -- callers read only whether there is a holder, and the
        downgrade applies to an owner alone -- so the sharers are tried in
        set order; ``access_reference`` tries the lowest-numbered first.
        """
        owner = entry.owner
        if owner is not None and owner != requester and line_addr in self.l2[owner]._lines:
            return owner
        for sharer in entry.sharers:
            if sharer != requester and line_addr in self.l2[sharer]._lines:
                return sharer
        return None

    def _coherent_miss_fill(self, core_id: int, line_addr: int, is_store: bool):
        """Serve an L2 miss coherently from a remote L2, the L3, or memory.

        Returns ``(latency, level)``; the public :meth:`access` wraps the
        pair into an :class:`AccessResult`.  A load reaches here only after
        missing in the L1D, so its L1D fill skips the presence check; a
        store's write-through never looked.
        """
        counts = self._counts
        l3_latency = self._l3_hit_latency
        entry = self._dir_entries.get(line_addr)
        owner = None if entry is None else self._remote_holder(entry, line_addr, core_id)

        if owner is not None:
            # 3-hop dirty cache-to-cache transfer from the owning L2.
            latency = self._c2c_latency
            counts["c2c_transfers"] += 1
            if is_store:
                targets = self.directory.record_exclusive_fetch(line_addr, core_id)
                if targets:
                    latency += self._inv_latency
                self._invalidate_remote_copies(line_addr, targets)
                self._fill_l2(core_id, line_addr, _MODIFIED, True, True)
                self.l1d[core_id].fill_shared(line_addr, True)
            else:
                self.directory.record_downgrade(line_addr, owner)
                self.directory.record_shared_fetch(line_addr, core_id)
                self._fill_l2(core_id, line_addr, _SHARED, False, True)
                self.l1d[core_id].fill_absent(line_addr, True)
            return (latency, "c2c")

        # No remote copy: an L3 hit moves the line up (the L3 is exclusive),
        # otherwise it is fetched off-chip.  The L3 touch/invalidate pair is
        # inlined; its state evolves exactly as through the calls.
        l3 = self.l3
        l3_line = l3._lines.pop(line_addr, None)
        if l3_line is not None:
            l3._touch_counter += 1
            tag = line_addr >> l3._line_shift
            mask = l3._set_mask
            del l3._sets[tag & mask if mask is not None else tag % l3._num_sets][line_addr]
            counts["l3.hits"] += 1
            latency = l3_latency
            level = "l3"
            dirty = l3_line.dirty
        else:
            counts["l3.misses"] += 1
            self.interconnect.record_offchip_transfer()
            latency = l3_latency + self.memory.access_latency(
                self.interconnect.offchip_contention_factor()
            )
            level = "memory"
            dirty = False
        if is_store:
            targets = self.directory.record_exclusive_fetch(line_addr, core_id)
            if targets:
                latency += self._inv_latency
            self._invalidate_remote_copies(line_addr, targets)
            self._fill_l2(core_id, line_addr, _MODIFIED, True, True)
            self.l1d[core_id].fill_shared(line_addr, True)
        else:
            # Directory.record_shared_fetch, inlined.
            if entry is None:
                entry = self._dir_entries[line_addr] = DirectoryEntry()
            if entry.owner != core_id:
                entry.sharers.add(core_id)
            self._fill_l2(core_id, line_addr, _OWNED if dirty else _SHARED, dirty, True)
            self.l1d[core_id].fill_absent(line_addr, True)
        return (latency, level)

    def _coherent_load(self, core_id: int, address: int):
        # The L1/L2 hit checks inline SetAssociativeCache.touch (flat-map get
        # plus LRU stamp) -- this is the single most frequent operation in the
        # whole simulator, and the method call per level is measurable.
        line_addr = address & self._line_neg_mask
        l1 = self.l1d[core_id]
        line = l1._lines.get(line_addr)
        if line is not None:
            l1._touch_counter = counter = l1._touch_counter + 1
            line.last_touch = counter
            self._counts["l1d.hits"] += 1
            return (self._l1d_hit_latency, "l1")
        return self._l1_miss_load(core_id, line_addr)

    def _l1_miss_load(self, core_id: int, line_addr: int):
        """A coherent load of ``line_addr`` from the point it missed the L1D.

        The one L1-miss load path: :meth:`_coherent_load`, ``warm`` and the
        core timing model's quantum loop check the L1D themselves (each
        inlines the hit) and continue here with the line-aligned address.
        The line is known to be absent from the L1D, so an L2 hit fills it
        through ``fill_absent``.
        """
        counts = self._counts
        counts["l1d.misses"] += 1
        l2 = self.l2[core_id]
        l2_line = l2._lines.get(line_addr)
        if l2_line is not None:
            l2._touch_counter = counter = l2._touch_counter + 1
            l2_line.last_touch = counter
            self.l1d[core_id].fill_absent(line_addr, l2_line.coherent)
            counts["l2.hits"] += 1
            return (self._l2_hit_latency, "l2")
        counts["l2.misses"] += 1
        return self._coherent_miss_fill(core_id, line_addr, False)

    def _coherent_store(self, core_id: int, address: int):
        line_addr = address & self._line_neg_mask
        counts = self._counts
        # The write-through L1 forwards every store to the L2; the L1 copy (if
        # any) is simply kept up to date at no extra cost.  The L2 hit check
        # inlines touch() like the load path above.
        l2 = self.l2[core_id]
        l2_line = l2._lines.get(line_addr)
        if l2_line is not None:
            l2._touch_counter = counter = l2._touch_counter + 1
            l2_line.last_touch = counter
            counts["l2.hits"] += 1
            latency = self._l2_hit_latency
            state = l2_line.state
            if state is _SHARED or state is _OWNED:
                targets = self.directory.record_exclusive_fetch(line_addr, core_id)
                targets.discard(core_id)
                if targets:
                    latency += self._inv_latency
                self._invalidate_remote_copies(line_addr, targets)
            l2_line.state = _MODIFIED
            l2_line.dirty = True
            dir_entry = self._dir_entries.get(line_addr)
            if (dir_entry.owner if dir_entry is not None else None) != core_id:
                self.directory.record_exclusive_fetch(line_addr, core_id)
            return (latency, "l2")
        counts["l2.misses"] += 1
        return self._coherent_miss_fill(core_id, line_addr, True)

    # ------------------------------------------------------------------ #
    # Incoherent (mute) access path
    # ------------------------------------------------------------------ #

    def _mute_access(self, core_id: int, address: int, is_store: bool):
        # L1/L2 hit checks inline touch(), as in the coherent paths.
        line_addr = address & self._line_neg_mask
        counts = self._counts
        l1 = self.l1d[core_id]
        l2 = self.l2[core_id]
        line = l1._lines.get(line_addr)
        if line is not None:
            l1._touch_counter = counter = l1._touch_counter + 1
            line.last_touch = counter
            counts["mute.l1d.hits"] += 1
            if is_store:
                l2_line = l2._lines.get(line_addr)
                if l2_line is not None:
                    l2_line.dirty = True
                    l2_line.coherent = False
            return (self._l1d_hit_latency, "l1")
        l2_line = l2._lines.get(line_addr)
        if l2_line is not None:
            l2._touch_counter = counter = l2._touch_counter + 1
            l2_line.last_touch = counter
            counts["mute.l2.hits"] += 1
            if is_store:
                l2_line.dirty = True
                l2_line.coherent = False
            return (self._l2_hit_latency, "l2")

        # Best-effort fill without changing global state.
        counts["mute.l2.misses"] += 1
        l3_latency = self._l3_hit_latency
        entry = self._dir_entries.get(line_addr)
        holder = None if entry is None else self._remote_holder(entry, line_addr, core_id)
        if holder is not None:
            latency = self._c2c_latency
            level = "c2c"
            counts["c2c_transfers"] += 1
            counts["mute.c2c_transfers"] += 1
        elif self.l3.lookup(line_addr) is not None:
            latency = l3_latency
            level = "l3"
            counts["mute.l3_hits"] += 1
        else:
            self.interconnect.record_offchip_transfer()
            latency = l3_latency + self.memory.access_latency(
                self.interconnect.offchip_contention_factor()
            )
            level = "memory"
            counts["mute.memory_accesses"] += 1
        self._fill_l2(core_id, line_addr, _MODIFIED if is_store else _SHARED, is_store, False)
        l1.fill_absent(line_addr, False)
        return (latency, level)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def access_raw(self, core_id: int, address: int, is_store: bool, coherent: bool = True):
        """Perform one data access without building an :class:`AccessResult`.

        Returns ``(latency, level)``; behaviour and counters are identical
        to :meth:`access`.
        """
        self._check_core(core_id)
        if address < 0:
            raise MemorySystemError(f"negative physical address {address}")
        if coherent:
            if is_store:
                return self._coherent_store(core_id, address)
            return self._coherent_load(core_id, address)
        return self._mute_access(core_id, address, is_store)

    def access(
        self, core_id: int, address: int, is_store: bool, coherent: bool = True
    ) -> AccessResult:
        """Perform one data access; return its latency and the level that served it."""
        latency, level = self.access_raw(core_id, address, is_store, coherent)
        return AccessResult(latency=latency, level=level)

    def warm(self, core_id: int, addresses, secondary_core: Optional[int] = None) -> int:
        """Functionally warm caches by touching ``addresses`` with loads.

        Each address is loaded coherently on ``core_id`` and, when a
        ``secondary_core`` is given (a DMR mute), incoherently on that core --
        exactly the access sequence the simulator's per-address warming loop
        used to issue, without the per-access wrapper overhead.  Returns the
        number of addresses touched.
        """
        self._check_core(core_id)
        if secondary_core is not None:
            self._check_core(secondary_core)
        l1_miss_load = self._l1_miss_load
        mute_access = self._mute_access
        # The L1D check is the first step of every touch, so it is inlined
        # here (the mute's too); a coherent miss continues on the one L1-miss
        # load path, a mute miss takes the full mute access.  Counters evolve
        # exactly as through the out-of-line calls.
        neg_mask = self._line_neg_mask
        counts = self._counts
        l1 = self.l1d[core_id]
        l1_lines = l1._lines
        count = 0
        if secondary_core is None:
            for address in addresses:
                line_addr = address & neg_mask
                line = l1_lines.get(line_addr)
                if line is not None:
                    l1._touch_counter = counter = l1._touch_counter + 1
                    line.last_touch = counter
                    counts["l1d.hits"] += 1
                else:
                    l1_miss_load(core_id, line_addr)
                count += 1
            return count
        m_l1 = self.l1d[secondary_core]
        m_lines = m_l1._lines
        for address in addresses:
            line_addr = address & neg_mask
            line = l1_lines.get(line_addr)
            if line is not None:
                l1._touch_counter = counter = l1._touch_counter + 1
                line.last_touch = counter
                counts["l1d.hits"] += 1
            else:
                l1_miss_load(core_id, line_addr)
            m_line = m_lines.get(line_addr)
            if m_line is not None:
                m_l1._touch_counter = counter = m_l1._touch_counter + 1
                m_line.last_touch = counter
                counts["mute.l1d.hits"] += 1
            else:
                mute_access(secondary_core, address, False)
            count += 1
        return count

    def load(self, core_id: int, address: int, coherent: bool = True) -> AccessResult:
        """Convenience wrapper for a load access."""
        return self.access(core_id, address, is_store=False, coherent=coherent)

    def store(self, core_id: int, address: int, coherent: bool = True) -> AccessResult:
        """Convenience wrapper for a store access."""
        return self.access(core_id, address, is_store=True, coherent=coherent)

    def flush_l2(self, core_id: int) -> FlushResult:
        """Flush one core's private L2 (and L1s) line by line.

        Used when an MMM-TP pair leaves DMR mode: the mute core's cache can
        contain a mixture of incoherent lines (from Reunion's best-effort
        path) and coherent lines (VCPU state moved during mode switches), so
        every frame must be inspected.  The paper pessimistically assumes one
        line inspected or written back per cycle, which is what makes Leave
        DMR roughly 8 k cycles more expensive than Enter DMR on the 512 KB L2.
        """
        self._check_core(core_id)
        l2 = self.l2[core_id]
        resident = l2.resident_lines()
        dirty_writebacks = 0
        incoherent_dropped = 0
        for line in resident:
            if line.needs_writeback:
                dirty_writebacks += 1
                l3_victim = self.l3.insert(
                    line.line_addr, state=LineState.OWNED, dirty=True, coherent=True
                )
                if l3_victim is not None and l3_victim.needs_writeback:
                    self.interconnect.record_offchip_transfer()
                    self.stats.add("l3.writebacks")
            elif not line.coherent:
                incoherent_dropped += 1
            self.directory.record_eviction(line.line_addr, core_id)
        l2.clear()
        self.l1d[core_id].clear()
        self.l1i[core_id].clear()
        # One cycle per frame inspected plus one per line written back.
        cycles = l2.capacity_lines + dirty_writebacks
        self.stats.add("l2.flushes")
        self.stats.add("l2.flush_cycles", cycles)
        return FlushResult(
            cycles=cycles,
            lines_inspected=l2.capacity_lines,
            dirty_writebacks=dirty_writebacks,
            incoherent_dropped=incoherent_dropped,
        )

    # ------------------------------------------------------------------ #
    # Reference implementation
    # ------------------------------------------------------------------ #

    def warm_reference(
        self, core_id: int, addresses, secondary_core: Optional[int] = None
    ) -> int:
        """Reference implementation of :meth:`warm`: one load per address.

        Kept, with :meth:`access_reference`, as the executable specification
        of the access paths: :meth:`warm` and :meth:`access_raw` must leave
        every cache, the directory, the counters and the off-chip window
        bit-identical to these (``tests/test_warm_parity.py``).
        """
        count = 0
        for address in addresses:
            self.access_reference(core_id, address, False)
            if secondary_core is not None:
                self.access_reference(secondary_core, address, False, coherent=False)
            count += 1
        return count

    def access_reference(
        self, core_id: int, address: int, is_store: bool, coherent: bool = True
    ):
        """Reference implementation of :meth:`access_raw`.

        Built only from the per-level primitives, one call per step:
        ``touch``, ``lookup``, ``insert`` and ``invalidate`` on the caches,
        the directory's ``record_*`` transitions, the interconnect and the
        DRAM model.  The L1D fills are plain ``insert``s of a clean SHARED
        line, so the fast paths' ``fill_absent`` (and its victim choice) is
        compared with ``insert``, not shared with it.
        """
        self._check_core(core_id)
        if address < 0:
            raise MemorySystemError(f"negative physical address {address}")
        line_addr = address & self._line_neg_mask
        counts = self._counts
        l1 = self.l1d[core_id]
        l2 = self.l2[core_id]
        directory = self.directory
        prefix = "" if coherent else "mute."

        # L1: loads and mute accesses only (coherent stores write through).
        if not (coherent and is_store):
            if l1.touch(line_addr) is not None:
                counts[prefix + "l1d.hits"] += 1
                if is_store:
                    line = l2.lookup(line_addr)
                    if line is not None:
                        line.dirty = True
                        line.coherent = False
                return (self._l1d_hit_latency, "l1")
            if coherent:
                counts["l1d.misses"] += 1

        # L2 hit: a mute store dirties its incoherent copy, a coherent
        # store upgrades the line to MODIFIED and takes ownership.
        line = l2.touch(line_addr)
        if line is not None and not coherent:
            counts["mute.l2.hits"] += 1
            if is_store:
                line.dirty = True
                line.coherent = False
            return (self._l2_hit_latency, "l2")
        if line is not None and not is_store:
            l1.insert(line_addr, LineState.SHARED, False, line.coherent)
            counts["l2.hits"] += 1
            return (self._l2_hit_latency, "l2")
        if line is not None:
            counts["l2.hits"] += 1
            latency = self._l2_hit_latency
            if line.state in (LineState.SHARED, LineState.OWNED):
                targets = directory.record_exclusive_fetch(line_addr, core_id)
                targets.discard(core_id)
                if targets:
                    latency += self._inv_latency
                self._invalidate_remote_copies(line_addr, targets)
            line.state = LineState.MODIFIED
            line.dirty = True
            if directory.owner_of(line_addr) != core_id:
                directory.record_exclusive_fetch(line_addr, core_id)
            return (latency, "l2")
        counts[prefix + "l2.misses"] += 1

        # L2 miss: a remote L2 holding the line (the owner first) serves it.
        holder = None
        entry = directory.peek(line_addr)
        if entry is not None:
            candidates = [entry.owner] if entry.owner is not None else []
            for candidate in candidates + sorted(entry.sharers):
                if candidate != core_id and self.l2[candidate].contains(line_addr):
                    holder = candidate
                    break

        # A mute miss reads without changing the L3 or the directory and
        # fills an incoherent line.
        if not coherent:
            if holder is not None:
                latency, level = self._c2c_latency, "c2c"
                counts["c2c_transfers"] += 1
                counts["mute.c2c_transfers"] += 1
            elif self.l3.lookup(line_addr) is not None:
                latency, level = self._l3_hit_latency, "l3"
                counts["mute.l3_hits"] += 1
            else:
                self.interconnect.record_offchip_transfer()
                latency = self._l3_hit_latency + self.memory.access_latency(
                    self.interconnect.offchip_contention_factor()
                )
                level = "memory"
                counts["mute.memory_accesses"] += 1
            state = LineState.MODIFIED if is_store else LineState.SHARED
            self._fill_l2_reference(core_id, line_addr, state, is_store, False)
            l1.insert(line_addr, LineState.SHARED, False, False)
            return (latency, level)

        # A coherent miss: cache-to-cache, else the exclusive L3 (the line
        # moves up), else memory; then the directory transition and fill.
        dirty = False
        if holder is not None:
            latency, level = self._c2c_latency, "c2c"
            counts["c2c_transfers"] += 1
        else:
            l3_line = self.l3.touch(line_addr)
            if l3_line is not None:
                latency, level = self._l3_hit_latency, "l3"
                dirty = l3_line.dirty
                self.l3.invalidate(line_addr)
                counts["l3.hits"] += 1
            else:
                counts["l3.misses"] += 1
                self.interconnect.record_offchip_transfer()
                latency = self._l3_hit_latency + self.memory.access_latency(
                    self.interconnect.offchip_contention_factor()
                )
                level = "memory"
        if is_store:
            targets = directory.record_exclusive_fetch(line_addr, core_id)
            if targets:
                latency += self._inv_latency
            self._invalidate_remote_copies(line_addr, targets)
            self._fill_l2_reference(core_id, line_addr, LineState.MODIFIED, True, True)
        else:
            if holder is not None:
                directory.record_downgrade(line_addr, holder)
            directory.record_shared_fetch(line_addr, core_id)
            state = LineState.OWNED if dirty else LineState.SHARED
            self._fill_l2_reference(core_id, line_addr, state, dirty, True)
        l1.insert(line_addr, LineState.SHARED, False, True)
        return (latency, level)

    def _fill_l2_reference(
        self, core_id: int, line_addr: int, state: LineState, dirty: bool, coherent: bool
    ) -> None:
        """Reference implementation of :meth:`_fill_l2`, one primitive per step."""
        victim = self.l2[core_id].insert(line_addr, state, dirty, coherent)
        if victim is None:
            return
        self.l1d[core_id].invalidate(victim.line_addr)
        self.l1i[core_id].invalidate(victim.line_addr)
        self.directory.record_eviction(victim.line_addr, core_id)
        if not victim.coherent:
            self._counts["l2.incoherent_victims_dropped"] += 1
            return
        l3_victim = self.l3.insert(victim.line_addr, victim.state, victim.dirty, True)
        self._counts["l2.victims_to_l3"] += 1
        if l3_victim is not None and l3_victim.needs_writeback:
            self.interconnect.record_offchip_transfer()
            self.memory.writeback_latency(self.interconnect.offchip_contention_factor())
            self._counts["l3.writebacks"] += 1

    # ------------------------------------------------------------------ #
    # Snapshots (functional-warm checkpoints)
    # ------------------------------------------------------------------ #

    def _caches(self) -> List[SetAssociativeCache]:
        return [*self.l1d, *self.l1i, *self.l2, self.l3]

    def is_pristine(self) -> bool:
        """Whether the hierarchy is still in the state it was built in.

        True while every cache is empty with its LRU clock unstarted, the
        directory holds no entry, no counter has been touched and the
        off-chip window is the untouched default one.
        """
        interconnect = self.interconnect
        return (
            not any(cache._sets or cache._touch_counter for cache in self._caches())
            and not self._dir_entries
            and not self._counts
            and not interconnect._counts
            and not self.memory._counts
            and interconnect._window_offchip_bytes == 0
            and interconnect._window_cycles == Interconnect.DEFAULT_WINDOW_CYCLES
        )

    def snapshot(self) -> tuple:
        """A packed, immutable copy of the whole hierarchy state.

        Covers every cache, the directory, every counter (the hierarchy's,
        the interconnect's and the DRAM's) and the off-chip window.
        """
        interconnect = self.interconnect
        return (
            tuple(cache.snapshot() for cache in self._caches()),
            self.directory.snapshot(),
            tuple(self._counts.items()),
            tuple(interconnect._counts.items()),
            tuple(self.memory._counts.items()),
            (
                interconnect._window_cycles,
                interconnect._window_offchip_bytes,
                interconnect._window_capacity,
            ),
        )

    def restore(self, snapshot: tuple) -> None:
        """Rebuild, in place, the state a :meth:`snapshot` recorded."""
        caches, directory, counts, interconnect_counts, memory_counts, window = snapshot
        for cache, cache_snapshot in zip(self._caches(), caches):
            cache.restore(cache_snapshot)
        self.directory.restore(directory)
        interconnect = self.interconnect
        for live, saved in (
            (self._counts, counts),
            (interconnect._counts, interconnect_counts),
            (self.memory._counts, memory_counts),
        ):
            live.clear()
            live.update(saved)
        (
            interconnect._window_cycles,
            interconnect._window_offchip_bytes,
            interconnect._window_capacity,
        ) = window

    def merged_stats(self) -> StatSet:
        """Hierarchy-wide statistics including interconnect and DRAM counters."""
        merged = StatSet(self.stats.as_dict())
        merged.merge(self.interconnect.stats)
        merged.merge(self.memory.stats)
        return merged
