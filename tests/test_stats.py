"""Tests for counters and confidence intervals."""

from __future__ import annotations

import math

from repro.common.stats import (
    ConfidenceInterval,
    StatSet,
    confidence_interval_95,
    left_sum,
    mean,
)


class TestConfidenceInterval:
    def test_empty_sequence(self):
        ci = confidence_interval_95([])
        assert ci.count == 0
        assert ci.mean == 0.0

    def test_single_sample_has_zero_width(self):
        ci = confidence_interval_95([3.5])
        assert ci.mean == 3.5
        assert ci.half_width == 0.0

    def test_constant_samples_have_zero_width(self):
        ci = confidence_interval_95([2.0] * 10)
        assert ci.mean == 2.0
        assert ci.half_width == 0.0

    def test_interval_contains_true_mean_for_symmetric_data(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        ci = confidence_interval_95(data)
        assert ci.low < 3.0 < ci.high
        assert math.isclose(ci.mean, 3.0)

    def test_str_mentions_count(self):
        assert "n=3" in str(confidence_interval_95([1, 2, 3]))

    def test_str_single_sample_says_so_instead_of_plus_minus_zero(self):
        rendered = str(confidence_interval_95([3.5]))
        assert rendered == "3.5 (single seed)"
        assert "±" not in rendered

    def test_str_empty_sequence_says_no_data(self):
        assert str(confidence_interval_95([])) == "(no data)"

    def test_bounds_are_symmetric(self):
        ci = ConfidenceInterval(mean=10.0, half_width=2.0, count=5)
        assert ci.low == 8.0
        assert ci.high == 12.0


def test_sums_round_after_every_addition_on_every_python():
    # A compensated sum (the built-in sum() from Python 3.12 on) keeps the
    # 1.0 that a left fold rounds away; documents must not depend on which.
    data = [1e16, 1.0, -1e16]
    assert left_sum(data) == 0.0
    assert mean(data) == 0.0
    assert confidence_interval_95(data).mean == 0.0
    assert left_sum([]) == 0 and left_sum([1, 2, 3]) == 6


class TestStatSet:
    def test_add_and_get(self):
        stats = StatSet()
        stats.add("hits")
        stats.add("hits", 4)
        assert stats.get("hits") == 5
        assert stats.get("absent") == 0
        assert stats.get("absent", 9) == 9

    def test_merge_and_scaled(self):
        a = StatSet({"x": 2})
        b = StatSet({"x": 3, "y": 1})
        a.merge(b)
        assert a.get("x") == 5
        assert a.get("y") == 1

    def test_ratio(self):
        stats = StatSet({"misses": 25, "accesses": 100})
        assert stats.ratio("misses", "accesses") == 0.25
        assert stats.ratio("misses", "absent") == 0.0

    def test_contains_len_and_items_sorted(self):
        stats = StatSet({"b": 1, "a": 2})
        assert "a" in stats
        assert len(stats) == 2
        assert [name for name, _ in stats.items()] == ["a", "b"]

    def test_set_overwrites(self):
        stats = StatSet({"x": 2})
        stats.set("x", 7)
        assert stats.get("x") == 7
