"""Conventional set-associative sparse directory.

The baseline the paper improves on: a directory *cache* with ``sets x ways``
entries.  When a set is full and a new block needs tracking, the LRU entry
is the victim and — because the conventional design maintains **strict
inclusion** ("every privately cached block is tracked") — the protocol must
invalidate every cached copy of the victim block.  These directory-induced
invalidations are exactly what destroys performance when the directory is
under-provisioned, and what the stash directory removes.

The state is flat and per directory, like
:class:`~repro.cache.array.CacheArray`'s: ``sets x ways`` slots (slot
``set * ways + way``) holding :class:`~repro.directory.base.DirectoryEntry`
records and their last-use ticks, one dict from block address to slot, one
fill count per set and one LRU clock.  Victim choice is factored into
:meth:`SparseDirectory.choose_victim`, which receives the full set's slot
range, so the stash directory can subclass and redirect it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..common.addr import log2_exact
from ..common.config import DirectoryConfig
from ..common.errors import ConfigError, DirectoryError
from ..common.rng import DeterministicRng
from ..common.stats import StatCounter, StatGroup
from .base import (
    AllocationResult,
    Directory,
    DirectoryEntry,
    Eviction,
    EvictionAction,
)
from .sharers import make_sharer_rep

# Read once: an ``EvictionAction.X`` load inside a per-allocation function
# is a class-attribute lookup through EnumType on every call.
_INVALIDATE = EvictionAction.INVALIDATE
_STASH = EvictionAction.STASH


class SparseDirectory(Directory):
    """Set-associative sparse directory with invalidate-on-eviction."""

    def __init__(
        self,
        config: DirectoryConfig,
        num_cores: int,
        entries: int,
        rng: DeterministicRng,  # unused by LRU; uniform factory signature
        stats: StatGroup,
    ) -> None:
        super().__init__(config, num_cores, entries)
        if entries % config.ways != 0:
            raise ConfigError(
                f"directory entries ({entries}) must be a multiple of ways ({config.ways})"
            )
        self.sets = entries // config.ways
        log2_exact(self.sets)  # indexing requires power-of-two sets
        self._index_mask = self.sets - 1
        self._ways = config.ways
        self.stats = stats
        #: Slot-indexed entries (slot ``set * ways + way``); None is a free way.
        self.entries: List[Optional[DirectoryEntry]] = [None] * entries
        self._last_use: List[int] = [0] * entries
        self._slot_of: Dict[int, int] = {}
        self._fill: List[int] = [0] * self.sets
        self._clock = 0
        # Lookup/allocation counters, bound on first event (see
        # StatGroup.counter), one eviction counter per action kind among
        # them: ``evictions_stash`` appears only once a stash has fired.
        self._c_hits: Optional[StatCounter] = None
        self._c_misses: Optional[StatCounter] = None
        self._c_allocations: Optional[StatCounter] = None
        self._c_deallocations: Optional[StatCounter] = None
        self._c_evictions: Optional[StatCounter] = None
        self._c_evictions_invalidate: Optional[StatCounter] = None
        self._c_evictions_stash: Optional[StatCounter] = None
        # Validated sharer-rep template; allocations clone it via fresh().
        self._rep_template = make_sharer_rep(config, num_cores)

    # -- internals -------------------------------------------------------------

    def lru_slot(self, slots: Iterable[int]) -> int:
        """The least recently used of ``slots`` (the first one on a tie)."""
        return min(slots, key=self._last_use.__getitem__)

    def choose_victim(self, slots: range) -> Tuple[int, EvictionAction]:
        """Pick ``(slot, action)`` among a full set's ``slots``.

        The conventional design always invalidates the LRU entry; the stash
        directory overrides this to prefer stash-eligible entries.
        """
        return self.lru_slot(slots), _INVALIDATE

    # -- Directory interface ------------------------------------------------------

    def lookup(self, addr: int, touch: bool = True) -> Optional[DirectoryEntry]:
        slot = self._slot_of.get(addr)
        if slot is None:
            if touch:
                cell = self._c_misses
                if cell is None:
                    cell = self._c_misses = self.stats.counter("misses")
                cell.value += 1
            return None
        if touch:
            self._clock = clock = self._clock + 1
            self._last_use[slot] = clock
            cell = self._c_hits
            if cell is None:
                cell = self._c_hits = self.stats.counter("hits")
            cell.value += 1
        return self.entries[slot]

    def allocate(self, addr: int) -> AllocationResult:
        slot_of = self._slot_of
        if addr in slot_of:
            raise DirectoryError(f"block {addr:#x} is already tracked")
        s = addr & self._index_mask
        ways = self._ways
        entries = self.entries
        eviction: Optional[Eviction] = None
        if self._fill[s] == ways:
            base = s * ways
            slot, action = self.choose_victim(range(base, base + ways))
            victim = entries[slot]
            assert victim is not None
            del slot_of[victim.addr]
            eviction = Eviction(victim, action)
            cell = self._c_evictions
            if cell is None:
                cell = self._c_evictions = self.stats.counter("evictions")
            cell.value += 1
            # An identity test, not a dict keyed by the action: hashing a
            # plain Enum member runs Enum.__hash__ in Python.
            if action is _STASH:
                cell = self._c_evictions_stash
                if cell is None:
                    cell = self._c_evictions_stash = self.stats.counter(
                        "evictions_stash"
                    )
            else:
                cell = self._c_evictions_invalidate
                if cell is None:
                    cell = self._c_evictions_invalidate = self.stats.counter(
                        "evictions_invalidate"
                    )
            cell.value += 1
        else:
            slot = s * ways
            while entries[slot] is not None:
                slot += 1
            self._fill[s] += 1
        entry = DirectoryEntry(addr, self._rep_template.fresh())
        entries[slot] = entry
        slot_of[addr] = slot
        self._clock = clock = self._clock + 1
        self._last_use[slot] = clock
        cell = self._c_allocations
        if cell is None:
            cell = self._c_allocations = self.stats.counter("allocations")
        cell.value += 1
        return AllocationResult(entry, eviction)

    def deallocate(self, addr: int) -> None:
        slot = self._slot_of.pop(addr, None)
        if slot is None:
            return
        self.entries[slot] = None
        self._fill[slot // self._ways] -= 1
        cell = self._c_deallocations
        if cell is None:
            cell = self._c_deallocations = self.stats.counter("deallocations")
        cell.value += 1

    # -- inspection ------------------------------------------------------------------

    def occupancy(self) -> int:
        return len(self._slot_of)

    def iter_entries(self) -> Iterator[DirectoryEntry]:
        for entry in self.entries:
            if entry is not None:
                yield entry

    def set_occupancy(self, addr: int) -> int:
        """Live entries in the set ``addr`` maps to (test helper)."""
        return self._fill[addr & self._index_mask]

    def obs_gauges(self) -> dict:
        gauges = super().obs_gauges()
        gauges["full_sets"] = self._fill.count(self._ways)
        return gauges
