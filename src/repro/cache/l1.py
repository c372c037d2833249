"""Per-core private L1 cache.

A thin coherence-aware wrapper over :class:`~repro.cache.array.CacheArray`:
the L1 stores MESI state per line and exposes exactly the operations the L1
controller needs (probe, fill, invalidate, downgrade).  All *protocol*
decisions live in :mod:`repro.coherence.l1_controller`; this class is pure
state.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..common.mesi import MesiState
from ..common.config import CacheConfig
from ..common.errors import ProtocolError
from ..common.stats import StatGroup
from .array import CacheArray
from .block import CacheBlock

# Raw int MESI states, read once: fills and downgrades run per miss and per
# forward, and a ``MesiState.X`` load there is a class-attribute lookup
# through EnumType on every call.
_S_INVALID = int(MesiState.INVALID)
_S_SHARED = int(MesiState.SHARED)
_S_MODIFIED = int(MesiState.MODIFIED)
_S_OWNED = int(MesiState.OWNED)


class L1Cache:
    """One core's private cache with MESI per-line state."""

    def __init__(
        self,
        core_id: int,
        config: CacheConfig,
        stats: StatGroup,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.stats = stats
        self._array = CacheArray(config, stats.child("array"))
        # Hot-path handles: these operations are pure delegations to the
        # array, so the instance binds them directly and callers skip a
        # wrapper frame per event.
        self.lookup_block = self._array.lookup
        self.probe = self._array.lookup
        self.peek_fill_victim = self._array.peek_victim
        self.invalidate = self._array.remove

    # -- lookups -------------------------------------------------------------

    def access_block(self, block_addr: int):
        """Local lookup: ``(block, level)`` with level "l1" or "miss".

        Interface parity with
        :meth:`repro.cache.hierarchy.PrivateHierarchy.access_block`.
        """
        block = self._array.lookup(block_addr)
        return block, ("l1" if block is not None else "miss")

    def probe(self, block_addr: int, touch: bool = True) -> Optional[CacheBlock]:
        """Return the line if cached (any valid state), else None.

        Shadowed per instance by the bound array lookup (same signature);
        kept for documentation and subclass overriding.
        """
        return self._array.lookup(block_addr, touch=touch)

    def state_of(self, block_addr: int) -> MesiState:
        """MESI state of the line, INVALID if not present (no LRU touch)."""
        block = self._array.lookup(block_addr, touch=False)
        return MesiState(block.state) if block is not None else MesiState.INVALID

    # -- fills ---------------------------------------------------------------

    def peek_fill_victim(self, block_addr: int) -> Optional[CacheBlock]:
        """Which line a fill would displace (None if a way is free)."""
        return self._array.peek_victim(block_addr)

    def fill(self, block_addr: int, state: MesiState, version: int) -> CacheBlock:
        """Install a line in ``state``.

        The caller must have already consumed :meth:`peek_fill_victim` and
        handled the victim's writeback/notification; ``fill`` asserts the
        resulting eviction matches that expectation by returning only the new
        block (the array's eviction is the same block peeked).
        """
        if state == _S_INVALID:
            raise ProtocolError("cannot fill a line in INVALID state")
        block, _evicted = self._array.allocate(block_addr, int(state))
        block.dirty = state == _S_MODIFIED
        block.version = version
        return block

    # -- state transitions ---------------------------------------------------

    def upgrade_to_modified(self, block_addr: int) -> CacheBlock:
        """S/E -> M on a local write (the write itself; messages are the
        controller's business)."""
        block = self._array.lookup(block_addr, touch=False)
        if block is None:
            raise ProtocolError(f"upgrade of uncached block {block_addr:#x}")
        block.state = _S_MODIFIED
        block.dirty = True
        return block

    def downgrade_to_owned(self, block_addr: int) -> CacheBlock:
        """M -> O on a remote read under MOESI: stay dirty, keep servicing
        readers (no LLC writeback)."""
        block = self._array.lookup(block_addr, touch=False)
        if block is None:
            raise ProtocolError(f"owned-downgrade of uncached block {block_addr:#x}")
        block.state = _S_OWNED
        return block

    def downgrade_to_shared(self, block_addr: int) -> CacheBlock:
        """M/E -> S on a remote read; returns the line so the caller can
        collect dirty data for writeback."""
        block = self._array.lookup(block_addr, touch=False)
        if block is None:
            raise ProtocolError(f"downgrade of uncached block {block_addr:#x}")
        block.state = _S_SHARED
        block.dirty = False
        return block

    def invalidate(self, block_addr: int) -> Optional[CacheBlock]:
        """Drop the line (remote write / directory eviction / back-inval).

        Returns the removed line (caller inspects ``dirty``/``version`` for
        writeback) or None if it was not present.
        """
        return self._array.remove(block_addr)

    # -- inspection ----------------------------------------------------------

    def iter_blocks(self) -> Iterator[CacheBlock]:
        """All valid lines (for invariant checking)."""
        return self._array.iter_blocks()

    def occupancy(self) -> int:
        """Number of valid lines."""
        return self._array.occupancy()
