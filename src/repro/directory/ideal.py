"""Ideal (unbounded) directory — the performance floor.

Tracks every block with no conflicts and no evictions, like a duplicate-tag
directory of unlimited reach.  The evaluation uses it as the lower bound the
other organizations are normalized against: any slowdown relative to IDEAL
is directory-induced.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..common.config import DirectoryConfig
from ..common.errors import DirectoryError
from ..common.stats import StatGroup
from .base import AllocationResult, Directory, DirectoryEntry
from .sharers import make_sharer_rep

# Builds the allocation record in one C call (see directory.base).
_tuple_new = tuple.__new__


class IdealDirectory(Directory):
    """Hash-map-backed directory with unbounded capacity."""

    def __init__(self, config: DirectoryConfig, num_cores: int, stats: StatGroup) -> None:
        # Capacity is nominal: reported as 0 meaning "unbounded".
        super().__init__(config, num_cores, capacity=0)
        self.stats = stats
        self._entries: Dict[int, DirectoryEntry] = {}
        self._c_hits = None
        self._c_misses = None
        # Validated sharer-rep template; allocations clone it via fresh().
        self._rep_template = make_sharer_rep(config, num_cores)

    def lookup(self, addr: int, touch: bool = True) -> Optional[DirectoryEntry]:
        entry = self._entries.get(addr)
        if touch:
            if entry is not None:
                cell = self._c_hits
                if cell is None:
                    cell = self._c_hits = self.stats.counter("hits")
            else:
                cell = self._c_misses
                if cell is None:
                    cell = self._c_misses = self.stats.counter("misses")
            cell.value += 1
        return entry

    def allocate(self, addr: int) -> AllocationResult:
        if addr in self._entries:
            raise DirectoryError(f"block {addr:#x} is already tracked")
        entry = DirectoryEntry(addr, self._rep_template.fresh())
        self._entries[addr] = entry
        self.stats.add("allocations")
        return _tuple_new(AllocationResult, (entry, None))

    def deallocate(self, addr: int) -> None:
        if self._entries.pop(addr, None) is not None:
            self.stats.add("deallocations")

    def occupancy(self) -> int:
        return len(self._entries)

    def iter_entries(self) -> Iterator[DirectoryEntry]:
        for addr in sorted(self._entries):
            yield self._entries[addr]
