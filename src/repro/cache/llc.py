"""Shared, inclusive, banked last-level cache.

The LLC is the data home for every block and — central to the paper — the
keeper of the per-line **stash bit**.  When the stash directory silently
drops an entry that tracked a private block, it sets the stash bit on the
corresponding LLC line; a later directory miss that hits a stash-bit line
triggers the discovery broadcast (see :mod:`repro.core.discovery`).

Banking is logical: the array is one structure, but every block has a static
home bank (:func:`~repro.common.addr.home_bank`) used for NoC distances; this
matches the usual "directory slice co-located with LLC bank" floorplan.

Inclusion is enforced by the protocol engine: before the LLC evicts a line it
back-invalidates every private copy (via the directory if tracked, via
discovery if the stash bit is set).
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..common.mesi import LlcState
from ..common.addr import home_bank
from ..common.config import CacheConfig
from ..common.errors import ProtocolError
from ..common.stats import StatGroup
from .array import CacheArray
from .block import CacheBlock

# Raw int of the one LLC state a fill installs, computed once (a fill runs
# per LLC miss; ``int(LlcState.VALID)`` there is an enum lookup and a call).
_S_VALID = int(LlcState.VALID)


class SharedLLC:
    """The shared inclusive LLC with stash-bit support."""

    def __init__(
        self,
        config: CacheConfig,
        num_banks: int,
        stats: StatGroup,
    ) -> None:
        self.config = config
        self.num_banks = num_banks
        self.stats = stats
        self._array = CacheArray(config, stats.child("array"))
        # Hot-path handles: pure delegations bound per instance so the
        # protocol engine's probes skip a wrapper frame (signatures match
        # the shadowed methods below).
        self.probe = self._array.lookup
        self.contains = self._array.contains
        self.peek_fill_victim = self._array.peek_victim
        self.invalidate = self._array.remove
        # Writebacks are absorbed once per dirty L1 eviction/downgrade:
        # bound counter cell, created on first event.
        self._c_writebacks = None

    # -- geometry ------------------------------------------------------------

    def bank_of(self, block_addr: int) -> int:
        """Static home bank (= home tile) of a block."""
        return home_bank(block_addr, self.num_banks)

    # -- lookups -------------------------------------------------------------

    def probe(self, block_addr: int, touch: bool = True) -> Optional[CacheBlock]:
        """Return the line if present."""
        return self._array.lookup(block_addr, touch=touch)

    def contains(self, block_addr: int) -> bool:
        """Presence test without touching replacement state."""
        return self._array.contains(block_addr)

    # -- fills / evictions ---------------------------------------------------

    def peek_fill_victim(self, block_addr: int) -> Optional[CacheBlock]:
        """Which line a fill of ``block_addr`` would displace."""
        return self._array.peek_victim(block_addr)

    def fill(self, block_addr: int, version: int, dirty: bool = False) -> CacheBlock:
        """Install a line fetched from memory.

        The protocol engine must already have handled the inclusion
        consequences of the victim reported by :meth:`peek_fill_victim`.
        """
        block, _ = self._array.allocate(block_addr, _S_VALID)
        block.dirty = dirty
        block.version = version
        return block

    def invalidate(self, block_addr: int) -> Optional[CacheBlock]:
        """Remove a line (LLC eviction path); returns it for writeback."""
        return self._array.remove(block_addr)

    # -- stash bit (the paper's LLC extension) --------------------------------

    def set_stash_bit(self, block_addr: int) -> None:
        """Mark the line as possibly hiding a private copy.

        Raises:
            ProtocolError: stash requires the line to be resident (the stash
                directory only stashes blocks the inclusive LLC holds).
        """
        block = self._array.lookup(block_addr, touch=False)
        if block is None:
            raise ProtocolError(
                f"stash bit for non-resident LLC line {block_addr:#x}"
            )
        if not block.stash:
            block.stash = True
            self.stats.add("stash_bits_set")

    def clear_stash_bit(self, block_addr: int) -> None:
        """Clear the stash bit (hidden copy discovered or known gone)."""
        block = self._array.lookup(block_addr, touch=False)
        if block is not None and block.stash:
            block.stash = False
            self.stats.add("stash_bits_cleared")

    def stash_bit(self, block_addr: int) -> bool:
        """Read the stash bit (False for non-resident lines)."""
        block = self._array.lookup(block_addr, touch=False)
        return bool(block is not None and block.stash)

    # -- data-version bookkeeping ---------------------------------------------

    def write_back(self, block_addr: int, version: int) -> CacheBlock:
        """Absorb a dirty writeback from a private cache."""
        block = self._array.lookup(block_addr, touch=False)
        if block is None:
            raise ProtocolError(
                f"writeback to non-resident LLC line {block_addr:#x} violates inclusion"
            )
        block.dirty = True
        if version > block.version:
            block.version = version
        cell = self._c_writebacks
        if cell is None:
            cell = self._c_writebacks = self.stats.counter("writebacks_absorbed")
        cell.value += 1
        return block

    # -- inspection ------------------------------------------------------------

    def iter_blocks(self) -> Iterator[CacheBlock]:
        """All valid lines (for invariant checking)."""
        return self._array.iter_blocks()

    def occupancy(self) -> int:
        """Number of valid lines."""
        return self._array.occupancy()

    def stash_bit_count(self) -> int:
        """How many resident lines currently carry the stash bit."""
        return sum(1 for block in self._array.iter_blocks() if block.stash)
