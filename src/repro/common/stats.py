"""Statistics helpers: counters, means and confidence intervals.

The paper reports averages over multiple runs with 95% confidence intervals;
:func:`confidence_interval_95` provides the same summary for the
reproduction's experiment runner.  :class:`StatSet` is the lightweight counter
bag simulated components use to expose their behaviour (the memory
hierarchy's misses and C2C transfers, window-full cycles, PAB violations,
...).
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Dict, Iterable, Mapping


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean together with a symmetric 95% confidence half-width."""

    mean: float
    half_width: float
    count: int

    @property
    def low(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    def __str__(self) -> str:
        # A half-width of 0 from n<=1 is not "no spread" but "no spread
        # *estimate*"; say so instead of printing a misleading "± 0".
        if self.count == 0:
            return "(no data)"
        if self.count == 1:
            return f"{self.mean:.4g} (single seed)"
        return f"{self.mean:.4g} ± {self.half_width:.2g} (n={self.count})"


# Two-sided 97.5% t quantiles for small sample sizes (index = degrees of freedom).
_T_TABLE = {
    1: 12.706,
    2: 4.303,
    3: 3.182,
    4: 2.776,
    5: 2.571,
    6: 2.447,
    7: 2.365,
    8: 2.306,
    9: 2.262,
    10: 2.228,
    15: 2.131,
    20: 2.086,
    30: 2.042,
}


@lru_cache(maxsize=None)
def _t_quantile(dof: int) -> float:
    """Approximate two-sided 95% t quantile for ``dof`` degrees of freedom.

    Memoized: the frame assembler calls this once per aggregated cell, and
    the sweep sizes mean the same handful of dof values repeat thousands of
    times (the cache is bounded by the number of distinct sample counts).
    """
    if dof <= 0:
        return 0.0
    if dof in _T_TABLE:
        return _T_TABLE[dof]
    keys = sorted(_T_TABLE)
    for key in keys:
        if dof < key:
            return _T_TABLE[key]
    return 1.96


def left_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right, rounding after every addition.

    From Python 3.12 on, the built-in ``sum()`` compensates float rounding,
    which moves some averaged metrics in their last digit.  This fold gives
    the bits that ``sum()`` gave before 3.12, on every version; results that
    reach a document are summed through it.  (``math.fsum`` would change
    them on every version.)
    """
    return reduce(operator.add, values, 0)


def confidence_interval_95(values: Iterable[float]) -> ConfidenceInterval:
    """Return the sample mean and 95% confidence half-width of ``values``.

    With a single sample the half-width is zero (there is no spread to
    estimate), mirroring how the experiment runner reports single-seed runs.
    """
    data = list(values)
    if not data:
        return ConfidenceInterval(mean=0.0, half_width=0.0, count=0)
    n = len(data)
    mean = left_sum(data) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0, count=1)
    variance = left_sum((x - mean) ** 2 for x in data) / (n - 1)
    sem = math.sqrt(variance / n)
    return ConfidenceInterval(mean=mean, half_width=_t_quantile(n - 1) * sem, count=n)


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (0 if the sequence is empty)."""
    data = list(values)
    if not data:
        return 0.0
    return left_sum(data) / len(data)


class StatSet:
    """A named bag of integer counters with a few convenience operations.

    ``StatSet`` behaves like a ``defaultdict(int)`` with explicit methods so
    that call sites read as instrumentation rather than dictionary plumbing::

        stats.add("l2.misses")
        stats.add("cycles", 17)
        stats.merge(other_stats)
    """

    def __init__(self, initial: Mapping[str, float] | None = None) -> None:
        # A defaultdict so that hot paths holding :attr:`counters` can write
        # ``counts[name] += 1`` without a ``get`` call per event; absent
        # counters still read as 0 through :meth:`get`, matching the previous
        # plain-dict behaviour (the int default also keeps pure-integer
        # counters integral, as before).
        self._counters: Dict[str, float] = defaultdict(int)
        if initial:
            self._counters.update(initial)

    def add(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount`` (creating it at zero)."""
        self._counters[name] += amount

    @property
    def counters(self) -> Dict[str, float]:
        """The live counter dictionary (a ``defaultdict(int)``).

        Hot paths (the cache and TLB lookup loops) bind this once and bump
        entries directly (``counts[name] += 1``) instead of paying a method
        call per event; mutating it is equivalent to calling
        :meth:`add`/:meth:`set`.  Note that *reading* an absent key through
        ``[]`` creates it at 0 -- use :meth:`get` for reads.
        """
        return self._counters

    def set(self, name: str, value: float) -> None:
        """Overwrite counter ``name``."""
        self._counters[name] = value

    def get(self, name: str, default: float = 0) -> float:
        """Read counter ``name`` (``default`` when absent)."""
        return self._counters.get(name, default)

    def merge(self, other: "StatSet") -> None:
        """Add every counter of ``other`` into this set."""
        for name, value in other.items():
            self.add(name, value)

    def items(self):
        """Iterate over ``(name, value)`` pairs sorted by name."""
        return sorted(self._counters.items())

    def as_dict(self) -> Dict[str, float]:
        """Return a plain dictionary copy of the counters."""
        return dict(self._counters)

    def ratio(self, numerator: str, denominator: str) -> float:
        """Return ``numerator / denominator`` (0 when the denominator is 0)."""
        denom = self.get(denominator)
        if denom == 0:
            return 0.0
        return self.get(numerator) / denom

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def __len__(self) -> int:
        return len(self._counters)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.items())
        return f"StatSet({inner})"
