"""Fixed-latency main-memory model with bandwidth accounting.

The paper's results do not hinge on DRAM microarchitecture, so memory is a
flat-latency device; what matters is *how often* each directory organization
forces a trip to it (coverage misses refetch from the LLC, but LLC misses
caused by lost locality do reach memory).  Reads and writebacks are counted
separately so the energy model and traffic reports can weight them.
"""

from __future__ import annotations

from ..common.config import TimingConfig
from ..common.stats import StatGroup


class MainMemory:
    """Flat-latency DRAM stand-in."""

    def __init__(self, timing: TimingConfig, stats: StatGroup) -> None:
        self._latency = timing.memory_latency
        self._stats = stats

    def read(self, block_addr: int = 0, now: int = 0) -> int:
        """Fetch one block; returns the access latency in cycles.

        ``block_addr`` and ``now`` exist for interface parity with the DRAM
        model (:class:`repro.mem.dram.DramModel`); the flat model ignores
        them.
        """
        self._stats.add("reads")
        return self._latency

    def write(self, block_addr: int = 0, now: int = 0) -> int:
        """Write one block back; returns the access latency in cycles.

        Writebacks are off the critical path of the evicting request in real
        systems; the protocol engine therefore records but does not charge
        this latency to the requester.
        """
        self._stats.add("writes")
        return self._latency

    @property
    def latency(self) -> int:
        """The configured access latency."""
        return self._latency

    def reads(self) -> float:
        """Blocks fetched so far."""
        return self._stats.get("reads")

    def writes(self) -> float:
        """Blocks written back so far."""
        return self._stats.get("writes")
