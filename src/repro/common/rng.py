"""Deterministic random-number utilities.

Every stochastic component in the library (workload generators, the cuckoo
directory) draws from a :class:`DeterministicRng` seeded explicitly,
so a simulation is reproducible bit-for-bit from its configuration.  Nothing
in the library ever touches the global :mod:`random` state.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A seeded random source with the handful of draws the library needs.

    Thin wrapper over :class:`random.Random` that (a) forces an explicit
    seed, (b) exposes only the operations we use so tests can fake it easily,
    and (c) supports spawning decorrelated child streams for per-core
    workload generators.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._rng = random.Random(seed)

    @property
    def seed(self) -> int:
        """The seed this stream was created with."""
        return self._seed

    def source(self) -> random.Random:
        """The seeded :class:`random.Random` behind this stream.

        Trace generators bind its ``random`` and ``getrandbits`` once per
        core, so no Python frame runs per draw.  They inline two rules: a
        uniform index below ``n`` is CPython's ``randrange(n)`` rule
        (``k = n.bit_length()``, then ``getrandbits(k)`` until the draw is
        below ``n``), and a Zipf index is ``bisect_left(zipf_cdf(n, alpha),
        random())``.
        """
        return self._rng

    def spawn(self, stream_id: int) -> "DeterministicRng":
        """Create an independent child stream.

        Child streams derived from the same (seed, stream_id) pair are
        identical across runs; different stream ids give decorrelated
        sequences.  Used to give each simulated core its own stream.
        """
        return DeterministicRng((self._seed * 1_000_003 + stream_id) & 0x7FFFFFFFFFFFFFFF)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        return self._rng.randint(lo, hi)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        return self._rng.choice(items)

    def shuffle(self, items: List[T]) -> None:
        """In-place Fisher-Yates shuffle."""
        self._rng.shuffle(items)


_ZIPF_CDF_CACHE: Dict[Tuple[int, float], List[float]] = {}


def zipf_cdf(n: int, alpha: float) -> List[float]:
    """The cumulative Zipf(``alpha``) table over ``n`` indices (cached).

    Non-decreasing and ending at exactly 1.0, so for any ``u`` in [0, 1)
    ``bisect_left(table, u)`` is the first index whose cumulative weight
    reaches ``u``: the inverse-CDF draw.  Treat the table as read-only.
    """
    key = (n, alpha)
    table = _ZIPF_CDF_CACHE.get(key)
    if table is None:
        weights = [1.0 / (i + 1) ** alpha for i in range(n)]
        total = sum(weights)
        acc = 0.0
        table = []
        for w in weights:
            acc += w / total
            table.append(acc)
        table[-1] = 1.0
        _ZIPF_CDF_CACHE[key] = table
    return table
