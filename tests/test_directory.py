"""Tests for the MOSI coherence directory."""

from __future__ import annotations

from repro.mem.directory import Directory


def test_shared_fetch_records_sharers():
    directory = Directory()
    directory.record_shared_fetch(0x100, core_id=0)
    directory.record_shared_fetch(0x100, core_id=1)
    assert directory.owner_of(0x100) is None
    assert directory.peek(0x100).sharers == {0, 1}


def test_exclusive_fetch_claims_ownership_and_returns_invalidation_targets():
    directory = Directory()
    directory.record_shared_fetch(0x200, 0)
    directory.record_shared_fetch(0x200, 1)
    targets = directory.record_exclusive_fetch(0x200, 2)
    assert targets == {0, 1}
    assert directory.owner_of(0x200) == 2
    assert directory.peek(0x200).sharers == set()


def test_exclusive_fetch_by_existing_sharer_excludes_itself():
    directory = Directory()
    directory.record_shared_fetch(0x240, 0)
    directory.record_shared_fetch(0x240, 1)
    targets = directory.record_exclusive_fetch(0x240, 0)
    assert targets == {1}


def test_downgrade_moves_owner_to_sharers():
    directory = Directory()
    directory.record_exclusive_fetch(0x300, 3)
    directory.record_downgrade(0x300, 3)
    assert directory.owner_of(0x300) is None
    assert directory.peek(0x300).sharers == {3}


def test_eviction_removes_core():
    directory = Directory()
    directory.record_exclusive_fetch(0x400, 1)
    directory.record_shared_fetch(0x400, 2)
    directory.record_eviction(0x400, 1)
    assert directory.owner_of(0x400) is None
    directory.record_eviction(0x400, 2)
    assert directory.peek(0x400).sharers == set()
    # Evicting an untracked line is harmless.
    directory.record_eviction(0x9999, 5)


def test_line_granularity_uses_line_address():
    directory = Directory(line_bytes=64)
    directory.record_shared_fetch(0x1000, 0)
    assert 0 in directory.entry(0x103F).sharers
    assert directory.peek(0x1040) is None


def test_len_counts_tracked_lines():
    directory = Directory()
    for index in range(5):
        directory.record_shared_fetch(index * 64, 0)
    assert len(directory) == 5
