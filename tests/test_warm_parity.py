"""Exact-parity tests for the fused cache-fill paths.

``MemoryHierarchy.warm`` and ``access_raw`` run through one flat L2-miss
fill (``_fill_l2``) and an inlined L3/memory load path.  The straightforward
versions, built only from the per-level primitives, are retained as
``MemoryHierarchy.warm_reference`` and ``access_reference`` -- the
executable specification.  These tests drive *two* hierarchies built from
one config through the same seeded random sequence -- warms with and
without a DMR mute, repeated and unaligned addresses, interleaved loads,
stores and mute accesses -- one through the fast paths and one through the
reference, and after every step require bit-identical state: per-set line
order and every line field, each LRU clock, the directory, the memory
system's counter dicts -- the hierarchy's, the interconnect's and the
DRAM's, zero-valued keys and key order included -- and the off-chip window.
The caches and the directory keep no counters of their own.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.config.presets import small_system_config
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.jobs import ExperimentJob, simulate_cell, simulation_identity
from repro.sim.settings import ExperimentSettings
from tests.conftest import hierarchy_state


def _small_with_l1d_ways(associativity: int):
    """``small_system_config()`` with another L1D associativity, same size."""
    config = small_system_config()
    return replace(config, l1d=replace(config.l1d, associativity=associativity)).validate()


# The two standard L1Ds are 2-way; the 4-way and direct-mapped variants take
# the L1 fill's general victim choice.
CONFIGS = {
    "quick": ExperimentSettings.quick().config(),
    "small": small_system_config(),
    "small-l1d-4way": _small_with_l1d_ways(4),
    "small-l1d-direct": _small_with_l1d_ways(1),
    "small-16core": replace(small_system_config(), num_cores=16).validate(),
}

# The cores each config's sequences run on.  A clean line held only by
# sharers is forwarded from the lowest-numbered one.  CPython iterates a set
# of ints below 8 in ascending order, so cores 0-3 alone cannot tell that
# rule from iterating the directory's sharer set as stored; the 16-core
# config mixes cores numbered 8 and up into the sharer sets.
CORES = {"small-16core": [2, 6, 9, 13]}


class Twins:
    """A fast-path hierarchy and a reference one, driven in lock step."""

    def __init__(self, config) -> None:
        self.fast = MemoryHierarchy(config)
        self.ref = MemoryHierarchy(config)
        # Count reference L3 inserts that find the line already resident
        # (a clean copy forwarded to another L2 stayed in the L3).
        self.l3_updates = 0
        insert = self.ref.l3.insert

        def counting_insert(address, *args, **kwargs):
            if self.ref.l3.lookup(address) is not None:
                self.l3_updates += 1
            return insert(address, *args, **kwargs)

        self.ref.l3.insert = counting_insert
        # Count reference L1D fills that evict a line: where the fast L1D
        # fill makes its victim choice.
        self.l1d_evictions = 0
        for l1d in self.ref.l1d:
            l1d.insert = self._count_l1d_evictions(l1d.insert)

    def _count_l1d_evictions(self, insert):
        def counting_insert(*args, **kwargs):
            victim = insert(*args, **kwargs)
            if victim is not None:
                self.l1d_evictions += 1
            return victim

        return counting_insert

    def check(self) -> None:
        assert hierarchy_state(self.fast) == hierarchy_state(self.ref)

    def access(self, core, address, is_store, coherent) -> None:
        got = self.fast.access_raw(core, address, is_store, coherent)
        want = self.ref.access_reference(core, address, is_store, coherent)
        assert got == want
        self.check()

    def warm(self, core, addresses, secondary=None) -> None:
        got = self.fast.warm(core, addresses, secondary_core=secondary)
        want = self.ref.warm_reference(core, addresses, secondary_core=secondary)
        assert got == want == len(addresses)
        self.check()

    def flush(self, core) -> None:
        assert self.fast.flush_l2(core) == self.ref.flush_l2(core)
        self.check()

    def counter(self, name: str) -> float:
        return self.ref.merged_stats().get(name)


def _address_pool(config, rng: random.Random):
    """Lines crowding a few L3 sets, so every level keeps evicting."""
    l3_sets = config.l3.num_sets
    line_bytes = config.l2.line_bytes
    sets = rng.sample(range(l3_sets), 6)
    depth = 3 * config.l3.associativity
    return [(index + way * l3_sets) * line_bytes for index in sets for way in range(depth)]


def _address(pool, rng: random.Random) -> int:
    # Unaligned half the time: every path must line-align first.
    return rng.choice(pool) + (rng.randrange(64) if rng.random() < 0.5 else 0)


def _prepare(twins: Twins, pool, cores, rng: random.Random) -> None:
    """Dirty lines in the L3 (flushed L2s) and remote owners and sharers."""
    for core in cores:
        for _ in range(40):
            twins.access(core, _address(pool, rng), True, True)
    twins.flush(cores[0])
    for core in cores:
        for _ in range(20):
            twins.access(core, _address(pool, rng), rng.random() < 0.5, True)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_sequences_match_the_reference(config_name, seed):
    config = CONFIGS[config_name]
    rng = random.Random(f"{config_name}:{seed}")
    twins = Twins(config)
    pool = _address_pool(config, rng)
    cores = CORES.get(config_name, [0, 1, 2, 3])
    _prepare(twins, pool, cores, rng)
    for _ in range(250):
        roll = rng.random()
        core = rng.choice(cores)
        if roll < 0.35:
            addresses = [_address(pool, rng) for _ in range(rng.randrange(1, 40))]
            # Repeats: some sweeps touch the same lines twice.
            addresses += addresses[: rng.randrange(len(addresses) + 1)]
            secondary = None
            if rng.random() < 0.5:
                secondary = rng.choice([other for other in cores if other != core])
            twins.warm(core, addresses, secondary)
        elif roll < 0.98:
            coherent = rng.random() < 0.75
            twins.access(core, _address(pool, rng), rng.random() < 0.3, coherent)
        else:
            twins.flush(core)
    # The sequences reach every branch of the fused paths.
    for name in (
        "l3.hits",
        "l3.misses",
        "l3.writebacks",
        "c2c_transfers",
        "l2.victims_to_l3",
        "l2.incoherent_victims_dropped",
        "remote_invalidations",
        "mute.c2c_transfers",
        "mute.l3_hits",
        "mute.memory_accesses",
    ):
        assert twins.counter(name) > 0, name
    assert twins.l3_updates > 0
    # ... and the L1D fill's victim choice.
    assert twins.l1d_evictions > 0


def test_functional_warm_and_rewarm_of_a_machine_match_the_reference():
    """A real machine's warm calls: every VCPU's working set, twice over."""
    settings = ExperimentSettings.quick()
    job = ExperimentJob("figure6", "apache", "mmm-tp", settings=settings)
    machine = simulation_identity(job).machine()
    calls = []
    for vm in machine.vms:
        machine.allocator.reset()
        plan = machine.policy.plan_quantum(vm.vcpus, machine.allocator, machine.pair_factory)
        for placement in plan.placements:
            calls.append(
                (
                    placement.assignment.primary_core,
                    machine.vcpus[placement.vcpu_id].workload.address_model.warm_addresses(),
                    placement.assignment.secondary_core,
                )
            )
    assert any(secondary is not None for _, _, secondary in calls)
    twins = Twins(machine.config)
    for _ in range(2):
        for core, addresses, secondary in calls:
            assert twins.fast.warm(core, addresses, secondary) == twins.ref.warm_reference(
                core, addresses, secondary
            )
    twins.check()
    assert twins.counter("l3.hits") > 0 and twins.counter("l2.victims_to_l3") > 0


def test_snapshot_restores_an_identical_hierarchy():
    config = CONFIGS["small"]
    rng = random.Random("snapshot")
    twins = Twins(config)
    pool = _address_pool(config, rng)
    cores = list(range(config.num_cores))
    _prepare(twins, pool, cores, rng)
    restored = MemoryHierarchy(config)
    assert restored.is_pristine()
    restored.restore(twins.fast.snapshot())
    assert not restored.is_pristine()
    assert hierarchy_state(restored) == hierarchy_state(twins.fast)
    # The restored copy behaves like the original from here on.
    for _ in range(300):
        core = rng.choice(cores)
        address = _address(pool, rng)
        is_store = rng.random() < 0.3
        coherent = rng.random() < 0.75
        assert restored.access_raw(core, address, is_store, coherent) == twins.fast.access_raw(
            core, address, is_store, coherent
        )
    assert hierarchy_state(restored) == hierarchy_state(twins.fast)


def test_any_touch_leaves_the_pristine_state():
    config = CONFIGS["small"]
    assert MemoryHierarchy(config).is_pristine()
    touches = [
        lambda h: h.load(0, 0x1000),
        lambda h: h.store(1, 0x1000),
        lambda h: h.load(2, 0x2000, coherent=False),
        lambda h: h.warm(0, (0x40,)),
        lambda h: h.flush_l2(3),
        lambda h: h.begin_window(500),
    ]
    for touch in touches:
        hierarchy = MemoryHierarchy(config)
        touch(hierarchy)
        assert not hierarchy.is_pristine()


#: ``SimulationResult.hierarchy_stats`` of the quick Figure 6 apache MMM-TP
#: cell, seed 0, in insertion order: the hierarchy's counters, then the
#: interconnect's, then the DRAM's.  The cell takes the mute path and
#: Leave-DMR flushes, so the counters of those paths are pinned too.
FIGURE6_APACHE_MMM_TP_STATS = [
    ("l1d.misses", 44763),
    ("l2.misses", 23348),
    ("l3.misses", 12405),
    ("mute.l2.misses", 7444),
    ("c2c_transfers", 9040),
    ("mute.c2c_transfers", 7444),
    ("l2.victims_to_l3", 13750),
    ("l2.incoherent_victims_dropped", 5073),
    ("l2.hits", 27096),
    ("mute.l2.hits", 2812),
    ("l3.hits", 9347),
    ("l1d.hits", 1484),
    ("mute.l1d.hits", 90),
    ("l2.flushes", 8),
    ("l2.flush_cycles", 4392),
    ("remote_invalidations", 645),
    ("offchip_bytes", 793920),
    ("accesses", 12405),
    ("contended_accesses", 9488),
    ("total_latency", 10137081),
]


def test_hierarchy_stats_of_a_figure6_cell_are_pinned():
    job = ExperimentJob("figure6", "apache", "mmm-tp", 0, settings=ExperimentSettings.quick())
    stats = simulate_cell(job).hierarchy_stats
    assert list(stats.items()) == FIGURE6_APACHE_MMM_TP_STATS
