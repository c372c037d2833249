"""Cuckoo directory baseline (Ferdman et al., HPCA 2011).

A d-ary cuckoo hash table: ``d`` independent hash functions each map a block
to one slot in its own sub-table.  On insertion conflict the directory
*relocates* a resident entry to one of its alternative slots, following a
displacement chain up to ``max_path`` steps; only if the chain fails does it
fall back to a conventional invalidating eviction.  Relocation converts most
conflict evictions into extra directory writes, which is why the cuckoo
directory tolerates lower provisioning than a set-associative sparse
directory — but unlike the stash directory it still invalidates whenever it
does run out of room, and every eviction (private or shared) costs cached
copies.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..common.addr import stride_hash
from ..common.config import DirectoryConfig
from ..common.errors import ConfigError, DirectoryError
from ..common.rng import DeterministicRng
from ..common.stats import StatGroup
from .base import (
    AllocationResult,
    Directory,
    DirectoryEntry,
    Eviction,
    EvictionAction,
)
from .sharers import make_sharer_rep

#: Displacement-chain length bound before giving up and evicting.
DEFAULT_MAX_PATH = 8


def cuckoo_slots(addr: int, ways: int, slots_per_way: int) -> Tuple[int, ...]:
    """Candidate slot of ``addr`` in each hash way, as flat table indices.

    Way ``w`` hashes with ``stride_hash(addr, w + 1)`` into its own
    sub-table, which occupies indices ``[w * slots_per_way, (w + 1) *
    slots_per_way)`` of one flat table.  The interpreter's
    :class:`CuckooDirectory` and the vector engine's flat model share this
    rule, so both place every block in the same slots.
    """
    return tuple([
        way * slots_per_way + stride_hash(addr, way + 1) % slots_per_way
        for way in range(ways)
    ])


class CuckooDirectory(Directory):
    """d-ary cuckoo-hashed directory with relocate-before-evict."""

    def __init__(
        self,
        config: DirectoryConfig,
        num_cores: int,
        entries: int,
        rng: DeterministicRng,
        stats: StatGroup,
        max_path: int = DEFAULT_MAX_PATH,
    ) -> None:
        super().__init__(config, num_cores, entries)
        self.d = config.ways  # number of hash functions / sub-tables
        if entries % self.d != 0:
            raise ConfigError(
                f"cuckoo entries ({entries}) must be a multiple of hash ways ({self.d})"
            )
        if max_path < 1:
            raise ConfigError("cuckoo max_path must be >= 1")
        self.slots_per_way = entries // self.d
        self.max_path = max_path
        self.stats = stats
        self._rng = rng
        # The d sub-tables, laid end to end (see cuckoo_slots).
        self._table: List[Optional[DirectoryEntry]] = [None] * entries
        # Candidate slots are needed at every relocation step; workloads
        # reuse addresses heavily, so memoize per address.
        self._slot_cache: dict = {}
        # Position index: addr -> (slot, entry).  Lookups and deallocations
        # are O(1) dict probes instead of d-way table scans; the
        # displacement chain keeps it current (placements overwrite, the
        # final eviction pops).
        self._where: dict = {}
        # Displacement-way picks draw one uniform way per chain step; the
        # bound getrandbits plus the rejection loop below reproduce
        # random.Random.randint(0, d-1) bit-for-bit without its three stdlib
        # call frames.  Bound lazily (the underlying Random materializes on
        # first draw, matching DeterministicRng's laziness).
        self._rand_bits = self.d.bit_length()
        self._getrandbits = None
        self._c_hits = None
        self._c_misses = None
        # Validated sharer-rep template; allocations clone it via fresh().
        self._rep_template = make_sharer_rep(
            config.sharer_format,
            num_cores,
            group=config.coarse_group,
            pointers=config.limited_pointers,
            cluster=config.hier_cluster,
            hier_pointers=config.hier_pointers,
        )

    # -- Directory interface ------------------------------------------------------

    def lookup(self, addr: int, touch: bool = True) -> Optional[DirectoryEntry]:
        pos = self._where.get(addr)
        if pos is None:
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
        return pos[1]

    def allocate(self, addr: int) -> AllocationResult:
        if addr in self._where:
            raise DirectoryError(f"block {addr:#x} is already tracked")

        entry = DirectoryEntry(addr, self._rep_template.fresh())
        self.stats.add("allocations")

        # The displacement chain is the cuckoo directory's hot loop (several
        # steps per conflicting allocation), so the per-step work is flat:
        # candidate slots are fetched from the memo once per homeless entry
        # and shared by the free-slot scan and the displacement pick, and the
        # random way draw inlines randint's getrandbits rejection loop.
        table = self._table
        where = self._where
        slot_cache = self._slot_cache
        d = self.d
        spw = self.slots_per_way
        rand_bits = self._rand_bits
        getrandbits = self._getrandbits
        if getrandbits is None:
            rng = self._rng
            getrandbits = self._getrandbits = (
                rng._rng or rng._materialize()
            ).getrandbits
        relocations = 0
        # A chain step only moves entries between occupied slots, so in a
        # full table no candidate slot is ever free: skip the scans.
        scan = len(where) < len(table)

        homeless = entry
        last_way = -1  # way we just placed into; don't bounce straight back
        for _step in range(self.max_path + 1):
            haddr = homeless.addr
            slots = slot_cache.get(haddr)
            if slots is None:
                slots = slot_cache[haddr] = cuckoo_slots(haddr, d, spw)
            if scan:
                # Any free candidate slot?  (Scanned in way order.)
                for slot in slots:
                    if table[slot] is None:
                        table[slot] = homeless
                        where[haddr] = (slot, homeless)
                        if homeless is not entry:
                            relocations += 1
                        if relocations:
                            self.stats.add("relocations", relocations)
                        return AllocationResult(entry, eviction=None)
            # All candidates full: displace one resident and recurse.  Never
            # displace the entry being inserted (its candidate slots can
            # collide with the homeless entry's), and avoid bouncing the
            # displaced entry straight back into the way it came from: a
            # random start way, then the next ways in order, with the way
            # just filled as the last resort.
            r = getrandbits(rand_bits)
            while r >= d:
                r = getrandbits(rand_bits)
            pick = -1
            fallback = -1
            for offset in range(d):
                way = r + offset
                if way >= d:
                    way -= d
                if table[slots[way]] is entry:
                    continue
                if way == last_way:
                    fallback = way
                    continue
                pick = way
                break
            if pick < 0:
                pick = fallback
            if pick < 0:
                break  # only the new entry's slot remains: stop relocating
            slot = slots[pick]
            displaced = table[slot]
            table[slot] = homeless
            where[haddr] = (slot, homeless)
            if homeless is not entry:
                relocations += 1
            homeless = displaced
            last_way = pick

        # Chain exhausted: the still-homeless entry is evicted conventionally.
        if relocations:
            self.stats.add("relocations", relocations)
        where.pop(homeless.addr, None)
        self.stats.add("evictions")
        self.stats.add("evictions_invalidate")
        return AllocationResult(entry, Eviction(homeless, EvictionAction.INVALIDATE))

    def deallocate(self, addr: int) -> None:
        pos = self._where.pop(addr, None)
        if pos is not None:
            self._table[pos[0]] = None
            self.stats.add("deallocations")

    # -- inspection ------------------------------------------------------------------

    def occupancy(self) -> int:
        return len(self._where)

    def iter_entries(self) -> Iterator[DirectoryEntry]:
        for entry in self._table:
            if entry is not None:
                yield entry
