"""On-chip interconnect and off-chip bandwidth model.

Latency model: the paper's target uses a point-to-point interconnect with an
average 10-cycle hop.  An L3 (2-hop) access pays the L3 latency; a dirty
cache-to-cache transfer is a 3-hop operation and therefore pays additional
hop latency -- the paper identifies exactly this extra latency as one of
Reunion's three overhead sources.

Bandwidth model: off-chip traffic (memory fills and writebacks) is
accumulated over a *window* (one scheduling quantum).  When the demand within
the window exceeds what the configured 40 GB/s link could deliver, subsequent
memory accesses in the window are stretched by the utilisation ratio.  This
coarse queueing model is what makes 16 active VCPUs observe lower per-thread
IPC than 8 (the paper's ``No DMR`` vs ``No DMR 2X`` gap) beyond L3 capacity
effects alone.
"""

from __future__ import annotations

from repro.common.stats import StatSet
from repro.config.system import InterconnectConfig, MemoryConfig


class Interconnect:
    """Latency and bandwidth bookkeeping for the on-chip fabric and DRAM link."""

    #: Window length before the first ``begin_window``: generous, so that
    #: users who never call it (unit tests, ad-hoc experiments) do not
    #: observe spurious bandwidth saturation.
    DEFAULT_WINDOW_CYCLES = 10_000

    def __init__(
        self, config: InterconnectConfig, memory_config: MemoryConfig, line_bytes: int = 64
    ) -> None:
        self.config = config
        self.memory_config = memory_config
        self.line_bytes = line_bytes
        self.stats = StatSet()
        # Hot-path binding: record_offchip_transfer runs once per off-chip
        # access and bumps the counter dict directly.
        self._counts = self.stats.counters
        self._window_cycles = self.DEFAULT_WINDOW_CYCLES
        self._window_offchip_bytes = 0
        self._window_capacity = memory_config.bytes_per_cycle() * self._window_cycles

    # ------------------------------------------------------------------ #
    # Latency components
    # ------------------------------------------------------------------ #

    @property
    def hop_latency(self) -> int:
        """Average latency of one interconnect hop."""
        return self.config.hop_latency

    def cache_to_cache_latency(self, l3_hit_latency: int, l2_hit_latency: int) -> int:
        """Latency of a 3-hop dirty cache-to-cache transfer.

        Requester -> directory (co-located with the L3 banks) -> owner's L2 ->
        requester.  This is strictly more expensive than a 2-hop L3 hit.
        """
        extra_hop = self.config.hop_latency * (self.config.cache_to_cache_hops - 2)
        return l3_hit_latency + extra_hop + l2_hit_latency

    def invalidation_latency(self, num_targets: int) -> int:
        """Latency to invalidate ``num_targets`` remote sharers (overlapped)."""
        if num_targets <= 0:
            return 0
        return self.config.hop_latency * 2

    @property
    def fingerprint_latency(self) -> int:
        """Latency of the dedicated fingerprint network."""
        return self.config.fingerprint_latency

    # ------------------------------------------------------------------ #
    # Off-chip bandwidth window
    # ------------------------------------------------------------------ #

    def begin_window(self, window_cycles: int) -> None:
        """Start a new bandwidth accounting window of ``window_cycles`` cycles."""
        self._window_cycles = max(1, window_cycles)
        self._window_offchip_bytes = 0
        self._window_capacity = self.memory_config.bytes_per_cycle() * self._window_cycles

    def record_offchip_transfer(self, bytes_moved: int | None = None) -> None:
        """Account one off-chip transfer (defaults to one cache line)."""
        moved = self.line_bytes if bytes_moved is None else bytes_moved
        self._window_offchip_bytes += moved
        counts = self._counts
        counts["offchip_bytes"] += moved

    def offchip_contention_factor(self) -> float:
        """Multiplier applied to memory latency under bandwidth saturation.

        The factor is 1.0 while demand stays below the link capacity for the
        current window and grows linearly with over-subscription beyond it.
        """
        capacity = self._window_capacity
        if capacity <= 0:
            return 1.0
        utilization = self._window_offchip_bytes / capacity
        if utilization <= 1.0:
            return 1.0
        return min(4.0, utilization)

    @property
    def window_offchip_bytes(self) -> int:
        """Bytes moved off-chip in the current window."""
        return self._window_offchip_bytes
