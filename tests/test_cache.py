"""Tests for the set-associative cache."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.config.system import CacheConfig
from repro.errors import MemorySystemError
from repro.mem.cache import SetAssociativeCache
from repro.mem.lines import CacheLine, LineState


@pytest.fixture
def cache():
    # 8 sets x 2 ways x 64-byte lines = 1 KB.
    return SetAssociativeCache(CacheConfig(name="t", size_bytes=1024, associativity=2))


def test_geometry(cache):
    assert cache.capacity_lines == 16
    assert cache.config.num_sets == 8


def test_miss_then_hit(cache):
    assert cache.touch(0x100) is None
    assert cache.occupancy == 0  # a miss fills nothing
    cache.insert(0x100)
    assert cache.touch(0x13F) is cache.lookup(0x100)  # same 64-byte line
    assert cache.touch(0x140) is None  # the next line was never filled
    assert [line.line_addr for line in cache.resident_lines()] == [0x100]


def test_line_granularity(cache):
    cache.insert(0x1000)
    assert cache.contains(0x103F)
    assert not cache.contains(0x1040)


def test_lru_eviction_within_a_set(cache):
    # Three addresses mapping to the same set (stride = num_sets * line).
    stride = cache.config.num_sets * 64
    a, b, c = 0x0, stride, 2 * stride
    cache.insert(a)
    cache.insert(b)
    cache.touch(a)           # make `a` most recently used
    victim = cache.insert(c)  # evicts `b`
    assert victim is not None
    assert victim.line_addr == b
    assert cache.contains(a)
    assert cache.contains(c)
    assert not cache.contains(b)


def test_insert_existing_line_updates_in_place(cache):
    cache.insert(0x200, state=LineState.SHARED)
    victim = cache.insert(0x200, state=LineState.MODIFIED, dirty=True)
    assert victim is None
    line = cache.lookup(0x200)
    assert line.state is LineState.MODIFIED
    assert line.dirty


def test_insert_invalid_state_rejected(cache):
    with pytest.raises(MemorySystemError):
        cache.insert(0x300, state=LineState.INVALID)


def test_invalidate(cache):
    cache.insert(0x400)
    removed = cache.invalidate(0x400)
    assert removed is not None
    assert not cache.contains(0x400)
    assert cache.invalidate(0x400) is None


def test_occupancy_never_exceeds_capacity(cache):
    for index in range(200):
        cache.insert(index * 64)
    assert cache.occupancy <= cache.capacity_lines
    per_set = Counter(line.line_addr // 64 % cache.config.num_sets for line in cache.lines())
    assert max(per_set.values()) <= cache.config.associativity


def test_clear(cache):
    for index in range(8):
        cache.insert(index * 64)
    dropped = cache.clear()
    assert dropped == 8
    assert cache.occupancy == 0


def test_resident_lines(cache):
    cache.touch(0x0)       # miss
    cache.insert(0x0)
    cache.insert(0x40, state=LineState.MODIFIED, dirty=True)
    cache.touch(0x0)       # hit
    resident = sorted(cache.resident_lines(), key=lambda line: line.line_addr)
    assert all(isinstance(line, CacheLine) for line in resident)
    assert [(line.line_addr, line.state, line.dirty) for line in resident] == [
        (0x0, LineState.SHARED, False),
        (0x40, LineState.MODIFIED, True),
    ]


def test_needs_writeback_logic():
    coherent_dirty = CacheLine(line_addr=0, state=LineState.MODIFIED, dirty=True, coherent=True)
    incoherent_dirty = CacheLine(line_addr=0, state=LineState.MODIFIED, dirty=True, coherent=False)
    clean = CacheLine(line_addr=0, state=LineState.SHARED, dirty=False)
    invalid = CacheLine(line_addr=0, state=LineState.INVALID, dirty=True)
    assert coherent_dirty.needs_writeback
    assert not incoherent_dirty.needs_writeback
    assert not clean.needs_writeback
    assert not invalid.needs_writeback
    assert not invalid.valid
