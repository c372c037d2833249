"""SCD-lite: a hierarchical-sharer directory baseline.

A simplified model of the Scalable Coherence Directory (Sanchez &
Kozyrakis, HPCA 2012), the other major sparse-directory scalability
proposal of the paper's era.  SCD's two ideas:

1. **ZCache backing** — very high effective associativity, so the
   directory behaves like a fully associative pool of *lines* (we model
   the pool directly and skip the z-cache mechanics; its point is
   precisely that utilization approaches full).
2. **Multi-line sharer representation** — a block with few sharers
   occupies a single limited-pointer line; a widely shared block occupies
   a *root* line plus one *leaf* line per group of cores with a sharer.
   Directory capacity is therefore consumed in proportion to how shared
   each block is, and every line format stays small regardless of core
   count.

Capacity is enforced in **lines**: when the pool is over budget, the
allocator evicts least-recently-used *blocks* (all their lines) with a
conventional invalidation.  Line usage reacts to sharer-set changes
through an entry subclass that reports its line count back to the
directory; enforcement happens at allocation points (a modeling
simplification over SCD's replace-on-leaf-insert, documented in
DESIGN.md).

Positioning vs. the stash directory: SCD stretches a fixed budget further
(no set conflicts, cheap entries), but it keeps **strict inclusion** — when
the budget truly runs out it must invalidate cached blocks, exactly the
cost stashing avoids.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..common.config import DirectoryConfig
from ..common.errors import ConfigError, DirectoryError
from ..common.stats import StatGroup
from .base import (
    AllocationResult,
    Directory,
    DirectoryEntry,
    Eviction,
    EvictionAction,
)
from .sharers import FullBitVector

#: Pointers per single-line (non-hierarchical) entry.
DEFAULT_POINTERS = 2

#: Cores per leaf line in hierarchical mode.
DEFAULT_LEAF_SIZE = 4


def scd_lines(
    mask: int, pointers: int = DEFAULT_POINTERS, leaf_size: int = DEFAULT_LEAF_SIZE
) -> int:
    """Lines a sharer bitmask occupies: 1, or 1 root + one leaf per group.

    A set of at most ``pointers`` sharers fits one limited-pointer line;
    a wider one takes a root line plus a leaf line for every
    ``leaf_size``-core group with a sharer.  The interpreter's
    :meth:`ScdDirectory.lines_for` and the vector engine's flat model both
    charge lines by this rule.
    """
    if mask.bit_count() <= pointers:
        return 1
    leaf = (1 << leaf_size) - 1
    lines = 1
    while mask:
        if mask & leaf:
            lines += 1
        mask >>= leaf_size
    return lines


class _ScdEntry(DirectoryEntry):
    """Directory entry that reports its line footprint to its directory.

    Tracking precision is a full believed set (SCD is an exact directory);
    what the representation changes is the *line count* the entry charges
    against the pool.
    """

    __slots__ = ("_directory", "_lines")

    def __init__(self, addr: int, num_cores: int, directory: "ScdDirectory") -> None:
        super().__init__(addr, FullBitVector(num_cores))
        self._directory = directory
        self._lines = 1
        directory._total_lines += 1

    # -- line accounting -----------------------------------------------------

    def line_count(self) -> int:
        """Lines this entry currently occupies."""
        return self._lines

    def _recount(self) -> None:
        new = self._directory.lines_for(self.believed)
        if new != self._lines:
            self._directory._total_lines += new - self._lines
            self._lines = new

    def _released(self) -> None:
        """The directory dropped this entry: release its lines."""
        self._directory._total_lines -= self._lines
        self._lines = 0

    # -- mutators (keep the footprint current) ---------------------------------

    def grant_exclusive(self, core: int) -> None:
        super().grant_exclusive(core)
        self._recount()

    def add_sharer(self, core: int) -> None:
        super().add_sharer(core)
        self._recount()

    def remove_core(self, core: int) -> None:
        super().remove_core(core)
        self._recount()


class ScdDirectory(Directory):
    """Fully associative pool of directory lines with multi-line entries."""

    def __init__(
        self,
        config: DirectoryConfig,
        num_cores: int,
        entries: int,
        rng,  # unused; uniform factory signature
        stats: StatGroup,
        pointers: int = DEFAULT_POINTERS,
        leaf_size: int = DEFAULT_LEAF_SIZE,
    ) -> None:
        # ``entries`` is interpreted as the LINE budget: one line per
        # conventional entry keeps provisioning ratios comparable.
        super().__init__(config, num_cores, entries)
        if pointers < 1:
            raise ConfigError("SCD pointers must be >= 1")
        if leaf_size < 1:
            raise ConfigError("SCD leaf size must be >= 1")
        self.pointers = pointers
        self.leaf_size = leaf_size
        self.stats = stats
        self._entries: Dict[int, _ScdEntry] = {}  # insertion order = LRU order
        self._total_lines = 0
        self._c_hits = None
        self._c_misses = None

    # -- line model ----------------------------------------------------------------

    def lines_for(self, believed) -> int:
        """Lines a sharer set occupies: 1, or 1 root + touched leaves."""
        mask = 0
        for core in believed:
            mask |= 1 << core
        return scd_lines(mask, self.pointers, self.leaf_size)

    def total_lines(self) -> int:
        """Lines currently charged against the pool."""
        return self._total_lines

    # -- Directory interface ------------------------------------------------------------

    def lookup(self, addr: int, touch: bool = True) -> Optional[DirectoryEntry]:
        entries = self._entries
        entry = entries.get(addr)
        if entry is None:
            if touch:
                cell = self._c_misses
                if cell is None:
                    cell = self._c_misses = self.stats.counter("misses")
                cell.value += 1
            return None
        if touch:
            cell = self._c_hits
            if cell is None:
                cell = self._c_hits = self.stats.counter("hits")
            cell.value += 1
            # Move to MRU position (dict preserves insertion order).
            del entries[addr]
            entries[addr] = entry
        return entry

    def allocate(self, addr: int) -> AllocationResult:
        if addr in self._entries:
            raise DirectoryError(f"block {addr:#x} is already tracked")
        self.stats.add("allocations")
        eviction: Optional[Eviction] = None
        # Lazy capacity enforcement: evict the LRU block if the pool is
        # full.  Multi-line growth between allocations can transiently
        # overshoot; it is reclaimed here, one block per allocation.
        if self._total_lines + 1 > self.capacity and self._entries:
            victim_addr = next(iter(self._entries))
            victim = self._entries.pop(victim_addr)
            victim._released()
            eviction = Eviction(victim, EvictionAction.INVALIDATE)
            self.stats.add("evictions")
            self.stats.add("evictions_invalidate")
        entry = _ScdEntry(addr, self.num_cores, self)
        self._entries[addr] = entry
        return AllocationResult(entry, eviction)

    def deallocate(self, addr: int) -> None:
        entry = self._entries.pop(addr, None)
        if entry is not None:
            entry._released()
            self.stats.add("deallocations")

    # -- inspection -----------------------------------------------------------------------

    def occupancy(self) -> int:
        return len(self._entries)

    def iter_entries(self) -> Iterator[DirectoryEntry]:
        yield from self._entries.values()

    def utilization(self) -> float:
        """Fraction of the line budget in use."""
        return self._total_lines / self.capacity if self.capacity else 0.0

    def obs_gauges(self) -> dict:
        gauges = super().obs_gauges()
        gauges["total_lines"] = self._total_lines
        gauges["line_utilization"] = self.utilization()
        return gauges
