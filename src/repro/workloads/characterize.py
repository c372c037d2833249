"""Trace characterization — the F1 motivation numbers.

The paper motivates stashing with one observation: *most directory entries
track private blocks*.  These functions measure that property of a trace:
the fraction of blocks touched by exactly one core, the sharing-degree
histogram, and the write fraction, per workload.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

from ..common.addr import log2_exact
from ..sim.trace import PackedTrace


@dataclass
class TraceProfile:
    """Static sharing profile of one trace."""

    name: str
    total_ops: int
    unique_blocks: int
    private_blocks: int          # touched by exactly one core
    sharing_histogram: Dict[int, int]  # sharers -> block count
    write_fraction: float
    private_access_fraction: float     # ops landing on private blocks

    @property
    def private_block_fraction(self) -> float:
        """Fraction of blocks that only one core ever touches."""
        if self.unique_blocks == 0:
            return 0.0
        return self.private_blocks / self.unique_blocks

    def degree_fraction(self, degree: int) -> float:
        """Fraction of blocks with exactly ``degree`` sharers."""
        if self.unique_blocks == 0:
            return 0.0
        return self.sharing_histogram.get(degree, 0) / self.unique_blocks


def profile_trace(
    trace: PackedTrace, block_bytes: int, name: str = ""
) -> TraceProfile:
    """Compute the sharing profile of a trace (read as packed words).

    ``block_bytes`` must be a power of two
    (:class:`~repro.common.errors.ConfigError` otherwise).
    """
    block_of = (log2_exact(block_bytes) + 1).__rrshift__
    low_bit = (1).__and__
    access_count: Counter = Counter()  # block -> accesses, first-touch order
    sharers: Counter = Counter()       # block -> cores that touch it
    writes = 0
    for stream in trace.streams:
        blocks = list(map(block_of, stream))
        access_count.update(blocks)
        sharers.update(set(blocks))
        writes += sum(map(low_bit, stream))
    total = sum(access_count.values())

    histogram: Dict[int, int] = {}
    private_blocks = 0
    private_accesses = 0
    for block, count in access_count.items():
        degree = sharers[block]
        histogram[degree] = histogram.get(degree, 0) + 1
        if degree == 1:
            private_blocks += 1
            private_accesses += count

    return TraceProfile(
        name=name,
        total_ops=total,
        unique_blocks=len(access_count),
        private_blocks=private_blocks,
        sharing_histogram=histogram,
        write_fraction=writes / total if total else 0.0,
        private_access_fraction=private_accesses / total if total else 0.0,
    )


def histogram_buckets(profile: TraceProfile, num_cores: int) -> List[float]:
    """Sharing-degree fractions bucketed as [1, 2, 3-4, 5-8, >8] (F1 shape)."""
    edges = [(1, 1), (2, 2), (3, 4), (5, 8), (9, num_cores)]
    buckets = []
    for lo, hi in edges:
        count = sum(
            profile.sharing_histogram.get(degree, 0) for degree in range(lo, hi + 1)
        )
        buckets.append(count / profile.unique_blocks if profile.unique_blocks else 0.0)
    return buckets
