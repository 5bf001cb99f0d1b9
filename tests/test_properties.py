"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.addresses import align_down, align_up
from repro.common.rng import DeterministicRng
from repro.common.stats import StatSet, confidence_interval_95
from repro.config.system import CacheConfig
from repro.isa.fingerprints import FingerprintUnit, fingerprint_of
from repro.isa.instructions import Instruction, InstructionClass
from repro.mem.cache import SetAssociativeCache
from repro.mem.directory import Directory
from repro.protection.pat import ProtectionAssistanceTable

_SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

addresses = st.integers(min_value=0, max_value=2**32 - 1)
alignments = st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128, 4096, 8192])


class TestAddressProperties:
    @_SETTINGS
    @given(value=addresses, alignment=alignments)
    def test_align_down_up_bracket_the_value(self, value, alignment):
        down = align_down(value, alignment)
        up = align_up(value, alignment)
        assert down <= value <= up
        assert down % alignment == 0
        assert up % alignment == 0
        assert up - down in (0, alignment)


class TestCacheProperties:
    @_SETTINGS
    @given(
        accesses=st.lists(
            st.integers(min_value=0, max_value=64 * 1024), min_size=1, max_size=300
        )
    )
    def test_occupancy_and_set_bounds_hold_for_any_access_sequence(self, accesses):
        cache = SetAssociativeCache(CacheConfig(name="p", size_bytes=2048, associativity=2))
        for address in accesses:
            if cache.touch(address) is None:
                cache.insert(address)
        assert cache.occupancy <= cache.capacity_lines
        line_bytes, num_sets = cache.config.line_bytes, cache.config.num_sets
        per_set = Counter(line.line_addr // line_bytes % num_sets for line in cache.lines())
        assert max(per_set.values()) <= cache.config.associativity
        # Everything resident is found by lookup at its line address.
        for line in cache.lines():
            assert cache.lookup(line.line_addr) is line

    @_SETTINGS
    @given(
        accesses=st.lists(
            st.integers(min_value=0, max_value=16 * 1024), min_size=1, max_size=200
        )
    )
    def test_most_recently_inserted_line_is_always_resident(self, accesses):
        cache = SetAssociativeCache(CacheConfig(name="p", size_bytes=1024, associativity=4))
        for address in accesses:
            cache.insert(address)
            assert cache.contains(address)


class TestDirectoryProperties:
    @_SETTINGS
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(["read", "write", "evict"]),
                st.integers(min_value=0, max_value=7),      # core
                st.integers(min_value=0, max_value=1023),   # line index
            ),
            max_size=200,
        )
    )
    def test_owner_is_never_also_a_sharer(self, operations):
        directory = Directory()
        for op, core, line in operations:
            address = line * 64
            if op == "read":
                directory.record_shared_fetch(address, core)
            elif op == "write":
                directory.record_exclusive_fetch(address, core)
            else:
                directory.record_eviction(address, core)
        for line in range(1024):
            entry = directory.peek(line * 64)
            if entry is None or entry.owner is None:
                continue
            assert entry.owner not in entry.sharers


class TestPatProperties:
    @_SETTINGS
    @given(marks=st.lists(st.integers(min_value=0, max_value=255), max_size=200))
    def test_pat_reflects_the_last_marking_of_each_page(self, marks):
        """A page is reliable-only once marked, however often; others stay open."""
        pat = ProtectionAssistanceTable(physical_memory_bytes=256 * 8192)
        for page in marks:
            pat.mark_reliable_page(page)
        for page in range(256):
            assert pat.is_reliable_only(page) == (page in marks)
        assert pat.reliable_page_count == len(set(marks))


class TestFingerprintProperties:
    @_SETTINGS
    @given(
        results=st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=64),
        interval=st.integers(min_value=1, max_value=16),
    )
    def test_identical_streams_always_agree(self, results, interval):
        a = FingerprintUnit(interval=interval)
        b = FingerprintUnit(interval=interval)
        for result in results:
            instruction = Instruction(iclass=InstructionClass.ALU, result=result)
            fa = a.observe(instruction)
            fb = b.observe(instruction)
            assert (fa is None) == (fb is None)
            if fa is not None:
                assert fa.value == fb.value
        fa, fb = a.flush(), b.flush()
        assert (fa is None) == (fb is None)
        if fa is not None:
            assert fa.value == fb.value

    @_SETTINGS
    @given(values=st.lists(st.integers(min_value=0, max_value=2**63), max_size=32))
    def test_fingerprint_of_is_pure(self, values):
        assert fingerprint_of(values) == fingerprint_of(list(values))


class TestStatsProperties:
    @_SETTINGS
    @given(values=st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=50))
    def test_confidence_interval_contains_the_mean(self, values):
        ci = confidence_interval_95(values)
        assert ci.low <= ci.mean <= ci.high

    @_SETTINGS
    @given(
        entries=st.dictionaries(
            st.text(min_size=1, max_size=8), st.integers(min_value=0, max_value=1000), max_size=20
        )
    )
    def test_statset_merge_is_additive(self, entries):
        a = StatSet(entries)
        b = StatSet(entries)
        a.merge(b)
        for name, value in entries.items():
            assert a.get(name) == 2 * value


class TestRngProperties:
    @_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1), label=st.text(max_size=12))
    def test_forked_streams_are_reproducible(self, seed, label):
        a = DeterministicRng(seed).fork(label)
        b = DeterministicRng(seed).fork(label)
        assert [a.randint(0, 1000) for _ in range(5)] == [b.randint(0, 1000) for _ in range(5)]

    @_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        base=st.integers(min_value=0, max_value=2**20),
        span=st.integers(min_value=1, max_value=2**20),
    )
    def test_sampled_addresses_respect_bounds(self, seed, base, span):
        rng = DeterministicRng(seed)
        address = rng.sample_address(base, span, alignment=64)
        assert base <= address < base + span or address == base
