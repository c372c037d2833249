"""Generic set-associative tag array.

:class:`CacheArray` implements lookup / allocate / evict mechanics once, for
every set-associative structure in the system (L1s, the LLC, and the sparse
and stash directories reuse the same set discipline through their own entry
tables).  It stores :class:`~repro.cache.block.CacheBlock` records and
delegates victim choice to a per-set replacement policy.

Allocation is split into two phases so protocol code can interleave side
effects correctly:

1. :meth:`peek_victim` — report which block *would* be evicted for a fill,
   without mutating anything.  The caller performs the coherence actions the
   eviction requires (back-invalidations, writebacks, discovery).
2. :meth:`allocate` — actually evict that victim and install the new line.
   The set and tag located by the peek are reused, so the second phase skips
   the index arithmetic.

Every operation runs once per simulated memory access, so the code here
trades a little repetition for flat, dispatch-free paths: set/tag extraction
is inlined, replacement hooks are bound per set at construction, and the
fill/eviction statistics are bound counter cells.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..common.config import CacheConfig
from ..common.errors import ProtocolError
from ..common.rng import DeterministicRng
from ..common.stats import StatCounter, StatGroup
from .block import CacheBlock
from .replacement import LruPolicy, ReplacementPolicy, make_policy


class CacheSet:
    """One set: way-indexed blocks, a tag index, and replacement metadata.

    ``touch``/``fill_touch``/``pick_victim`` are the policy's hooks bound
    once at construction — the hot path calls them without re-fetching the
    policy object per access.  For the default LRU policy, ``lru`` exposes
    the policy object itself so :meth:`CacheArray.lookup` can advance the
    recency clock inline (one call frame saved per hit).
    """

    __slots__ = (
        "ways", "blocks", "by_tag", "policy", "touch", "fill_touch",
        "pick_victim", "lru",
    )

    def __init__(self, ways: int, policy: ReplacementPolicy) -> None:
        self.ways = ways
        self.blocks: List[Optional[CacheBlock]] = [None] * ways
        self.by_tag: Dict[int, int] = {}
        self.policy = policy
        self.touch = policy.on_access
        self.fill_touch = policy.on_fill
        self.pick_victim = policy.victim
        self.lru = policy if type(policy) is LruPolicy else None

    def find(self, tag: int) -> Optional[int]:
        """Way holding ``tag``, or None."""
        return self.by_tag.get(tag)

    def occupancy(self) -> int:
        """Number of valid lines in the set."""
        return len(self.by_tag)


class CacheArray:
    """A set-associative array of :class:`CacheBlock` records."""

    def __init__(self, config: CacheConfig, rng: DeterministicRng, stats: StatGroup) -> None:
        self.config = config
        self.stats = stats
        self._sets: List[CacheSet] = [
            CacheSet(config.ways, make_policy(config.replacement, config.ways, rng.spawn(i)))
            for i in range(config.sets)
        ]
        # Hot-path index/tag extraction (equivalent to set_index/tag_bits).
        self._index_mask = config.sets - 1
        self._tag_shift = config.sets.bit_length() - 1
        # (block_addr, set, tag) located by the last peek_victim, reused by
        # the allocate that completes the two-phase fill.
        self._peeked: Optional[Tuple[int, CacheSet, int]] = None
        # Event counters, bound on first use so untouched arrays stay absent
        # from the stats tree.
        self._c_fills: Optional[StatCounter] = None
        self._c_evictions: Optional[StatCounter] = None
        self._c_removals: Optional[StatCounter] = None

    # -- lookup --------------------------------------------------------------

    def lookup(self, block_addr: int, touch: bool = True) -> Optional[CacheBlock]:
        """Return the block if present; update replacement state if ``touch``."""
        cset = self._sets[block_addr & self._index_mask]
        way = cset.by_tag.get(block_addr >> self._tag_shift)
        if way is None:
            return None
        if touch:
            lru = cset.lru
            if lru is not None:
                # Inline of LruPolicy.on_access (package-internal fast path).
                lru._clock = clock = lru._clock + 1
                lru._last_use[way] = clock
            else:
                cset.touch(way)
        return cset.blocks[way]

    def contains(self, block_addr: int) -> bool:
        """Presence test with no replacement-state side effect."""
        cset = self._sets[block_addr & self._index_mask]
        return (block_addr >> self._tag_shift) in cset.by_tag

    # -- allocation ----------------------------------------------------------

    def peek_victim(self, block_addr: int) -> Optional[CacheBlock]:
        """The block a fill of ``block_addr`` would evict (None if a way is free).

        Does not mutate replacement state; the subsequent :meth:`allocate`
        will evict exactly this block (policies are only advanced by
        accesses/fills, which the caller does not interleave).
        """
        cset = self._sets[block_addr & self._index_mask]
        tag = block_addr >> self._tag_shift
        if tag in cset.by_tag:
            raise ProtocolError(f"block {block_addr:#x} already present; fill is invalid")
        self._peeked = (block_addr, cset, tag)
        if len(cset.by_tag) != cset.ways:  # a way is free
            return None
        return cset.blocks[cset.pick_victim()]

    def allocate(self, block_addr: int, state: int) -> Tuple[CacheBlock, Optional[CacheBlock]]:
        """Install ``block_addr`` and return ``(new_block, evicted_block)``.

        The caller must have already handled the coherence consequences of
        the eviction reported by :meth:`peek_victim`.
        """
        peeked = self._peeked
        if peeked is not None and peeked[0] == block_addr:
            _, cset, tag = peeked
            self._peeked = None
        else:
            cset = self._sets[block_addr & self._index_mask]
            tag = block_addr >> self._tag_shift
        by_tag = cset.by_tag
        if tag in by_tag:
            raise ProtocolError(f"block {block_addr:#x} already present; fill is invalid")
        blocks = cset.blocks
        evicted: Optional[CacheBlock] = None
        if len(by_tag) == cset.ways:
            way = cset.pick_victim()
            evicted = blocks[way]
            assert evicted is not None
            del by_tag[evicted.tag]
            cell = self._c_evictions
            if cell is None:
                cell = self._c_evictions = self.stats.counter("evictions")
            cell.value += 1
        else:
            way = 0
            while blocks[way] is not None:
                way += 1
        block = CacheBlock(block_addr, tag, state)
        blocks[way] = block
        by_tag[tag] = way
        cset.fill_touch(way)
        cell = self._c_fills
        if cell is None:
            cell = self._c_fills = self.stats.counter("fills")
        cell.value += 1
        return block, evicted

    # -- removal -------------------------------------------------------------

    def remove(self, block_addr: int) -> Optional[CacheBlock]:
        """Drop the block (invalidation); return it, or None if absent."""
        cset = self._sets[block_addr & self._index_mask]
        tag = block_addr >> self._tag_shift
        way = cset.by_tag.get(tag)
        if way is None:
            return None
        block = cset.blocks[way]
        cset.blocks[way] = None
        del cset.by_tag[tag]
        cell = self._c_removals
        if cell is None:
            cell = self._c_removals = self.stats.counter("removals")
        cell.value += 1
        return block

    # -- inspection ----------------------------------------------------------

    def iter_blocks(self) -> Iterator[CacheBlock]:
        """Every valid block, set by set (deterministic order)."""
        for cset in self._sets:
            for block in cset.blocks:
                if block is not None:
                    yield block

    def occupancy(self) -> int:
        """Total valid lines."""
        return sum(cset.occupancy() for cset in self._sets)

    def set_occupancy(self, block_addr: int) -> int:
        """Valid lines in the set that ``block_addr`` maps to."""
        return self._sets[block_addr & self._index_mask].occupancy()
