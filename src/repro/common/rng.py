"""Deterministic random number generation.

All stochastic behaviour in the simulator (synthetic workload generation,
fault arrival, address streams) flows through :class:`DeterministicRng` so
that a simulation is exactly reproducible from its seed.  The class wraps
:class:`random.Random` and adds the handful of distributions the simulator
actually needs, keeping call sites readable.
"""

from __future__ import annotations

import random
import zlib
from typing import Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A seeded random source with helpers used throughout the simulator.

    Parameters
    ----------
    seed:
        Any hashable seed.  Two instances created with the same seed produce
        identical streams of values.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._random = random.Random(seed)
        # Bound once for the hot address-sampling path below.
        self._randbelow = self._random._randbelow

    @property
    def seed(self) -> int:
        """The seed this generator was created with."""
        return self._seed

    @property
    def raw(self) -> random.Random:
        """The underlying :class:`random.Random`.

        Hot paths bind its bound methods directly (``rng.raw.random``,
        ``rng.raw.randint``) to skip the wrapper call; the value stream is
        identical to going through the helpers on this class.
        """
        return self._random

    def fork(self, label: str) -> "DeterministicRng":
        """Return an independent generator derived from this seed and ``label``.

        Forking is used to give each VCPU, workload and fault injector its own
        stream so that adding one consumer does not perturb the others.  The
        derivation uses a stable CRC (not Python's ``hash``, which is salted
        per process) so that runs are reproducible across processes.
        """
        derived = zlib.crc32(f"{self._seed}:{label}".encode("utf-8")) & 0x7FFF_FFFF
        return DeterministicRng(derived)

    def chance(self, probability: float) -> bool:
        """Return ``True`` with the given probability (clamped to [0, 1]).

        With :meth:`sample_address` and :meth:`hot_cold_address`, the
        executable specification of ``AddressStreamModel.next_address``,
        which inlines the three (``tests/test_address_draw.py``).
        """
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high)``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` (inclusive)."""
        return self._random.randint(low, high)

    def geometric(self, mean: float) -> int:
        """A geometric-ish positive integer with the requested mean.

        Used for phase lengths (user instructions between OS entries, OS
        service lengths).  The distribution is a shifted geometric so the
        result is always at least 1.
        """
        if mean <= 1.0:
            return 1
        p = 1.0 / mean
        # Inverse-CDF sampling of a geometric distribution.
        u = self._random.random()
        # Guard against log(0).
        u = max(u, 1e-12)
        import math

        value = int(math.log(u) / math.log(1.0 - p)) + 1
        return max(1, value)

    def choice(self, items: Sequence[T]) -> T:
        """Pick one element uniformly."""
        return self._random.choice(items)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one element with the given (unnormalised) weights."""
        return self._random.choices(items, weights=weights, k=1)[0]

    def sample_address(self, base: int, span: int, alignment: int = 1) -> int:
        """Uniform address in ``[base, base + span)`` aligned to ``alignment``.

        Part of the address draw's executable specification (see
        :meth:`chance`).
        """
        if span <= 0:
            return base
        # Equivalent to ``self._random.randrange(0, span)`` (which reduces to
        # ``_randbelow(span)``) without the argument-checking overhead; the
        # underlying bit stream consumed is identical.
        offset = self._randbelow(span)
        if alignment > 1:
            offset -= offset % alignment
        return base + offset

    def hot_cold_address(
        self,
        base: int,
        hot_span: int,
        cold_span: int,
        hot_probability: float,
        alignment: int = 1,
    ) -> int:
        """Address from a hot set with high probability, else the cold span.

        This is the simple temporal-locality model used by the synthetic
        address streams: a small hot working set absorbs most accesses while
        the remainder spread over a larger cold region.  Part of the address
        draw's executable specification (see :meth:`chance`).
        """
        if self.chance(hot_probability) or cold_span <= hot_span:
            return self.sample_address(base, hot_span, alignment)
        return self.sample_address(base + hot_span, cold_span - hot_span, alignment)
