"""Conventional set-associative sparse directory.

The baseline the paper improves on: a directory *cache* with ``sets x ways``
entries.  When a set is full and a new block needs tracking, the replacement
policy picks a victim entry and — because the conventional design maintains
**strict inclusion** ("every privately cached block is tracked") — the
protocol must invalidate every cached copy of the victim block.  These
directory-induced invalidations are exactly what destroys performance when
the directory is under-provisioned, and what the stash directory removes.

The set/way mechanics mirror :class:`~repro.cache.array.CacheArray` but store
:class:`~repro.directory.base.DirectoryEntry` records; victim choice is
factored into :meth:`choose_victim` so the stash directory can subclass and
redirect it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..cache.replacement import LruPolicy, ReplacementPolicy, make_policy
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


class _DirSet:
    """One directory set: way-slots, an address index and replacement state.

    Like :class:`~repro.cache.array.CacheSet`, the policy hooks are bound
    once at construction so the per-lookup path has no policy dispatch.
    """

    __slots__ = ("ways", "entries", "by_addr", "policy", "touch", "fill_touch", "lru")

    def __init__(self, ways: int, policy: ReplacementPolicy) -> None:
        self.ways = ways
        self.entries: List[Optional[DirectoryEntry]] = [None] * ways
        self.by_addr: Dict[int, int] = {}
        self.policy = policy
        self.touch = policy.on_access
        self.fill_touch = policy.on_fill
        self.lru = policy if type(policy) is LruPolicy else None

    def find(self, addr: int) -> Optional[int]:
        return self.by_addr.get(addr)


class SparseDirectory(Directory):
    """Set-associative sparse directory with invalidate-on-eviction."""

    def __init__(
        self,
        config: DirectoryConfig,
        num_cores: int,
        entries: int,
        rng: DeterministicRng,
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
        self.stats = stats
        self._sets: List[_DirSet] = [
            _DirSet(config.ways, make_policy("lru", config.ways, rng.spawn(i)))
            for i in range(self.sets)
        ]
        # Lookup/allocation counters, bound on first event (see
        # StatGroup.counter); eviction counters are keyed per action kind.
        self._c_hits: Optional[StatCounter] = None
        self._c_misses: Optional[StatCounter] = None
        self._c_allocations: Optional[StatCounter] = None
        self._c_deallocations: Optional[StatCounter] = None
        self._c_evictions: Optional[StatCounter] = None
        self._c_evictions_by_action: Dict[EvictionAction, StatCounter] = {}
        # Validated sharer-rep template; allocations clone it via fresh().
        self._rep_template = make_sharer_rep(
            config.sharer_format,
            num_cores,
            group=config.coarse_group,
            pointers=config.limited_pointers,
            cluster=config.hier_cluster,
            hier_pointers=config.hier_pointers,
        )

    # -- internals -------------------------------------------------------------

    def _set_of(self, addr: int) -> _DirSet:
        return self._sets[addr & self._index_mask]

    def _new_entry(self, addr: int) -> DirectoryEntry:
        return DirectoryEntry(addr, self._rep_template.fresh())

    def choose_victim(self, dirset: _DirSet) -> Tuple[int, EvictionAction]:
        """Pick ``(way, action)`` when the set is full.

        The conventional design always invalidates; the stash directory
        overrides this to prefer stash-eligible entries.
        """
        return dirset.policy.victim(), EvictionAction.INVALIDATE

    # -- Directory interface ------------------------------------------------------

    def lookup(self, addr: int, touch: bool = True) -> Optional[DirectoryEntry]:
        dirset = self._sets[addr & self._index_mask]
        way = dirset.by_addr.get(addr)
        if way is None:
            if touch:
                cell = self._c_misses
                if cell is None:
                    cell = self._c_misses = self.stats.counter("misses")
                cell.value += 1
            return None
        if touch:
            lru = dirset.lru
            if lru is not None:
                # Inline of LruPolicy.on_access (package-internal fast path).
                lru._clock = clock = lru._clock + 1
                lru._last_use[way] = clock
            else:
                dirset.touch(way)
            cell = self._c_hits
            if cell is None:
                cell = self._c_hits = self.stats.counter("hits")
            cell.value += 1
        return dirset.entries[way]

    def allocate(self, addr: int) -> AllocationResult:
        dirset = self._sets[addr & self._index_mask]
        by_addr = dirset.by_addr
        if addr in by_addr:
            raise DirectoryError(f"block {addr:#x} is already tracked")
        entries = dirset.entries
        eviction: Optional[Eviction] = None
        if len(by_addr) == dirset.ways:
            way, action = self.choose_victim(dirset)
            victim = entries[way]
            assert victim is not None
            del by_addr[victim.addr]
            eviction = Eviction(victim, action)
            cell = self._c_evictions
            if cell is None:
                cell = self._c_evictions = self.stats.counter("evictions")
            cell.value += 1
            action_cell = self._c_evictions_by_action.get(action)
            if action_cell is None:
                action_cell = self._c_evictions_by_action[action] = self.stats.counter(
                    f"evictions_{action.value}"
                )
            action_cell.value += 1
        else:
            way = 0
            while entries[way] is not None:
                way += 1
        entry = self._new_entry(addr)
        entries[way] = entry
        by_addr[addr] = way
        dirset.fill_touch(way)
        cell = self._c_allocations
        if cell is None:
            cell = self._c_allocations = self.stats.counter("allocations")
        cell.value += 1
        return AllocationResult(entry, eviction)

    def deallocate(self, addr: int) -> None:
        dirset = self._sets[addr & self._index_mask]
        way = dirset.by_addr.get(addr)
        if way is None:
            return
        dirset.entries[way] = None
        del dirset.by_addr[addr]
        cell = self._c_deallocations
        if cell is None:
            cell = self._c_deallocations = self.stats.counter("deallocations")
        cell.value += 1

    # -- inspection ------------------------------------------------------------------

    def occupancy(self) -> int:
        return sum(len(dirset.by_addr) for dirset in self._sets)

    def iter_entries(self) -> Iterator[DirectoryEntry]:
        for dirset in self._sets:
            for entry in dirset.entries:
                if entry is not None:
                    yield entry

    def set_occupancy(self, addr: int) -> int:
        """Live entries in the set ``addr`` maps to (test helper)."""
        return len(self._set_of(addr).by_addr)

    def obs_gauges(self) -> dict:
        gauges = super().obs_gauges()
        gauges["full_sets"] = sum(
            1 for dirset in self._sets if len(dirset.by_addr) == dirset.ways
        )
        return gauges
