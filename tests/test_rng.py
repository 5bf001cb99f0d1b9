"""Tests for the deterministic random source."""

from __future__ import annotations

from repro.common.rng import DeterministicRng


def test_same_seed_gives_identical_streams():
    a = DeterministicRng(42)
    b = DeterministicRng(42)
    assert [a.randint(0, 1000) for _ in range(50)] == [
        b.randint(0, 1000) for _ in range(50)
    ]


def test_different_seeds_give_different_streams():
    a = DeterministicRng(1)
    b = DeterministicRng(2)
    assert [a.randint(0, 10**9) for _ in range(10)] != [
        b.randint(0, 10**9) for _ in range(10)
    ]


def test_fork_is_deterministic_and_label_sensitive():
    base = DeterministicRng(7)
    again = DeterministicRng(7)
    assert base.fork("x").randint(0, 10**9) == again.fork("x").randint(0, 10**9)
    assert base.fork("x").seed != base.fork("y").seed


def test_fork_does_not_perturb_parent_stream():
    plain = DeterministicRng(9)
    forked = DeterministicRng(9)
    forked.fork("child")
    assert plain.randint(0, 10**6) == forked.randint(0, 10**6)


def test_chance_boundaries():
    rng = DeterministicRng(0)
    assert rng.chance(0.0) is False
    assert rng.chance(1.0) is True
    assert rng.chance(-1.0) is False
    assert rng.chance(2.0) is True


def test_chance_frequency_tracks_probability():
    rng = DeterministicRng(5)
    hits = sum(rng.chance(0.25) for _ in range(4000))
    assert 800 < hits < 1200


def test_geometric_mean_is_close_to_requested():
    rng = DeterministicRng(11)
    samples = [rng.geometric(50.0) for _ in range(4000)]
    assert all(s >= 1 for s in samples)
    mean = sum(samples) / len(samples)
    assert 40 < mean < 60


def test_geometric_with_tiny_mean_returns_one():
    rng = DeterministicRng(3)
    assert rng.geometric(0.5) == 1
    assert rng.geometric(1.0) == 1


def test_sample_address_respects_bounds_and_alignment():
    rng = DeterministicRng(13)
    for _ in range(200):
        address = rng.sample_address(base=0x1000, span=0x800, alignment=64)
        assert 0x1000 <= address < 0x1800
        assert address % 64 == 0


def test_sample_address_with_zero_span_returns_base():
    rng = DeterministicRng(13)
    assert rng.sample_address(0x2000, 0) == 0x2000


def test_hot_cold_address_prefers_hot_window():
    rng = DeterministicRng(17)
    hot_hits = 0
    for _ in range(2000):
        address = rng.hot_cold_address(
            base=0, hot_span=1024, cold_span=65536, hot_probability=0.9, alignment=64
        )
        assert 0 <= address < 65536
        if address < 1024:
            hot_hits += 1
    assert hot_hits > 1600


def test_weighted_choice_and_choice_return_members():
    rng = DeterministicRng(19)
    items = ["a", "b", "c"]
    assert rng.choice(items) in items
    assert rng.weighted_choice(items, [1, 1, 8]) in items

