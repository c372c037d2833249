"""Generic set-associative tag array with LRU replacement.

:class:`CacheArray` implements lookup / allocate / evict mechanics once, for
the L1s, the LLC and the private L2s.  It stores
:class:`~repro.cache.block.CacheBlock` records in flat per-array state, with
no per-set objects:

* ``sets x ways`` slots, slot ``set * ways + way``, holding the blocks and
  each slot's last-use tick;
* one dict from block address to slot, so a lookup never computes a set;
* one fill count per set and one LRU clock for the whole array.

Replacement only ever compares last-use ticks *within* one set, so one
monotone clock per array is enough to order every set.  A fill takes the
set's lowest free way; a full set evicts its least recently used way.

Protocol code reads the victim first with :meth:`peek_victim`, handles its
coherence consequences (back-invalidations, writebacks, discovery), and
then calls :meth:`allocate`, which evicts exactly that block (only
accesses and fills move the LRU order, and the caller interleaves neither).

Every operation runs once per simulated memory access; the fill/eviction
statistics are bound counter cells.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..common.config import CacheConfig
from ..common.errors import ProtocolError
from ..common.stats import StatCounter, StatGroup
from .block import CacheBlock


class CacheArray:
    """A set-associative array of :class:`CacheBlock` records (LRU)."""

    def __init__(self, config: CacheConfig, stats: StatGroup) -> None:
        self.config = config
        self.stats = stats
        slots = config.sets * config.ways
        self._ways = config.ways
        self._blocks: List[Optional[CacheBlock]] = [None] * slots
        self._last_use: List[int] = [0] * slots
        self._slot_of: Dict[int, int] = {}
        self._fill: List[int] = [0] * config.sets
        self._clock = 0
        self._index_mask = config.sets - 1
        # Event counters, bound on first use so untouched arrays stay absent
        # from the stats tree.
        self._c_fills: Optional[StatCounter] = None
        self._c_evictions: Optional[StatCounter] = None
        self._c_removals: Optional[StatCounter] = None

    # -- lookup --------------------------------------------------------------

    def lookup(self, block_addr: int, touch: bool = True) -> Optional[CacheBlock]:
        """Return the block if present; make it the set's MRU if ``touch``."""
        slot = self._slot_of.get(block_addr)
        if slot is None:
            return None
        if touch:
            self._clock = clock = self._clock + 1
            self._last_use[slot] = clock
        return self._blocks[slot]

    def contains(self, block_addr: int) -> bool:
        """Presence test with no replacement-state side effect."""
        return block_addr in self._slot_of

    # -- allocation ----------------------------------------------------------

    def _lru_slot(self, base: int) -> int:
        """The least recently used slot of the set starting at ``base``."""
        return min(range(base, base + self._ways), key=self._last_use.__getitem__)

    def peek_victim(self, block_addr: int) -> Optional[CacheBlock]:
        """The block a fill of ``block_addr`` would evict (None if a way is free).

        Does not mutate replacement state.
        """
        if block_addr in self._slot_of:
            raise ProtocolError(f"block {block_addr:#x} already present; fill is invalid")
        s = block_addr & self._index_mask
        if self._fill[s] != self._ways:
            return None
        return self._blocks[self._lru_slot(s * self._ways)]

    def allocate(self, block_addr: int, state: int) -> Tuple[CacheBlock, Optional[CacheBlock]]:
        """Install ``block_addr`` and return ``(new_block, evicted_block)``.

        The caller must have already handled the coherence consequences of
        the eviction reported by :meth:`peek_victim`.
        """
        slot_of = self._slot_of
        if block_addr in slot_of:
            raise ProtocolError(f"block {block_addr:#x} already present; fill is invalid")
        s = block_addr & self._index_mask
        ways = self._ways
        blocks = self._blocks
        evicted: Optional[CacheBlock] = None
        if self._fill[s] == ways:
            slot = self._lru_slot(s * ways)
            evicted = blocks[slot]
            assert evicted is not None
            del slot_of[evicted.addr]
            cell = self._c_evictions
            if cell is None:
                cell = self._c_evictions = self.stats.counter("evictions")
            cell.value += 1
        else:
            slot = s * ways
            while blocks[slot] is not None:
                slot += 1
            self._fill[s] += 1
        block = CacheBlock(block_addr, state)
        blocks[slot] = block
        slot_of[block_addr] = slot
        self._clock = clock = self._clock + 1
        self._last_use[slot] = clock
        cell = self._c_fills
        if cell is None:
            cell = self._c_fills = self.stats.counter("fills")
        cell.value += 1
        return block, evicted

    # -- removal -------------------------------------------------------------

    def remove(self, block_addr: int) -> Optional[CacheBlock]:
        """Drop the block (invalidation); return it, or None if absent."""
        slot = self._slot_of.pop(block_addr, None)
        if slot is None:
            return None
        block = self._blocks[slot]
        self._blocks[slot] = None
        self._fill[slot // self._ways] -= 1
        cell = self._c_removals
        if cell is None:
            cell = self._c_removals = self.stats.counter("removals")
        cell.value += 1
        return block

    # -- inspection ----------------------------------------------------------

    def iter_blocks(self) -> Iterator[CacheBlock]:
        """Every valid block, set by set (deterministic order)."""
        for block in self._blocks:
            if block is not None:
                yield block

    def occupancy(self) -> int:
        """Total valid lines."""
        return len(self._slot_of)

    def set_occupancy(self, block_addr: int) -> int:
        """Valid lines in the set that ``block_addr`` maps to."""
        return self._fill[block_addr & self._index_mask]
