"""Two-level private cache hierarchy (L1 + inclusive private L2).

The paper's CMP gives each core an L1 and a private L2; the directory
tracks the L2 level.  :class:`PrivateHierarchy` is a drop-in for
:class:`~repro.cache.l1.L1Cache` in the protocol engine: it exposes the
same coherence interface (probe / fill / invalidate / downgrade / upgrade)
over the whole private domain, and manages the L1/L2 interaction
internally:

* **Inclusion** — every L1 line is also in the L2; an L2 eviction silently
  drops the L1 copy (it is the same coherence unit leaving the domain).
* **Promotion** — a local access that misses L1 but hits L2 promotes the
  line into the L1 (the demoted L1 victim folds its dirty state into its
  L2 copy; no protocol message).
* **State mirroring** — coherence state/dirty/version are kept identical
  in both copies at every externally visible point, so the L2 view
  (:meth:`iter_blocks`) is always the authoritative content of the private
  domain for invariant checking.

Only the *hierarchy-level* victim (an L2 eviction) is reported to the home
as a putback; L1↔L2 movement is invisible to the directory, exactly as in
hardware.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from ..common.config import CacheConfig
from ..common.errors import ConfigError, ProtocolError
from ..common.mesi import MesiState
from ..common.stats import StatGroup
from .array import CacheArray
from .block import CacheBlock


class PrivateHierarchy:
    """One core's private L1 + inclusive private L2."""

    def __init__(
        self,
        core_id: int,
        l1_config: CacheConfig,
        l2_config: CacheConfig,
        stats: StatGroup,
    ) -> None:
        if l2_config.block_bytes != l1_config.block_bytes:
            raise ConfigError("L1 and private L2 must share one block size")
        if l2_config.blocks < l1_config.blocks:
            raise ConfigError(
                "inclusive private L2 must be at least as large as the L1 "
                f"({l2_config.blocks} < {l1_config.blocks} blocks)"
            )
        self.core_id = core_id
        self.config = l1_config      # interface parity with L1Cache
        self.l2_config = l2_config
        self.stats = stats
        self._l1 = CacheArray(l1_config, stats.child("l1_array"))
        self._l2 = CacheArray(l2_config, stats.child("l2_array"))

    # -- internal helpers ---------------------------------------------------------

    def _sync_down(self, l1_block: CacheBlock) -> None:
        """Fold an L1 copy's state into its (mandatory) L2 copy."""
        l2_block = self._l2.lookup(l1_block.addr, touch=False)
        if l2_block is None:  # pragma: no cover - inclusion violation
            raise ProtocolError(
                f"L1 holds {l1_block.addr:#x} without an L2 copy (inclusion bug)"
            )
        l2_block.state = l1_block.state
        l2_block.dirty = l1_block.dirty
        l2_block.version = l1_block.version

    def _demote_l1_victim(self, addr: int) -> None:
        """Make room in the L1 for ``addr``: demote the victim into the L2."""
        victim = self._l1.peek_victim(addr)
        if victim is not None:
            self._sync_down(victim)
            self._l1.remove(victim.addr)
            self.stats.add("l1_demotions")

    def _install_l1(self, l2_block: CacheBlock) -> CacheBlock:
        """Mirror an L2 line into the L1 (promotion / fill path)."""
        self._demote_l1_victim(l2_block.addr)
        l1_block, evicted = self._l1.allocate(l2_block.addr, l2_block.state)
        assert evicted is None
        l1_block.dirty = l2_block.dirty
        l1_block.version = l2_block.version
        return l1_block

    # -- local access path (used by the L1 controller) ------------------------------

    def access_block(self, addr: int) -> Tuple[Optional[CacheBlock], str]:
        """Local lookup: returns ``(block, level)``.

        ``level`` is ``"l1"``, ``"l2"`` (line was promoted) or ``"miss"``.
        The returned block is always the (possibly fresh) L1 copy.
        """
        l1_block = self._l1.lookup(addr)
        if l1_block is not None:
            return l1_block, "l1"
        l2_block = self._l2.lookup(addr)
        if l2_block is not None:
            self.stats.add("l2_promotions")
            return self._install_l1(l2_block), "l2"
        return None, "miss"

    # -- coherence interface (same surface as L1Cache) --------------------------------

    def probe(self, block_addr: int, touch: bool = True) -> Optional[CacheBlock]:
        """Does the private domain hold the line?  (No promotion.)

        Returns the L2 copy — the authoritative view — so remote flows
        (forwards, discovery) see correct state/dirty/version.
        """
        l1_block = self._l1.lookup(block_addr, touch=False)
        if l1_block is not None:
            self._sync_down(l1_block)  # L1 may be ahead (recent write)
        return self._l2.lookup(block_addr, touch=touch)

    def state_of(self, block_addr: int) -> MesiState:
        """MESI state of the line in the private domain."""
        block = self.probe(block_addr, touch=False)
        return MesiState(block.state) if block is not None else MesiState.INVALID

    def peek_fill_victim(self, block_addr: int) -> Optional[CacheBlock]:
        """The block a fill would push out of the private domain (L2 victim).

        The returned view carries the *merged* dirty state (an L1 copy may
        be dirtier than its L2 mirror), which is what the putback needs.
        """
        victim = self._l2.peek_victim(block_addr)
        if victim is None:
            return None
        l1_copy = self._l1.lookup(victim.addr, touch=False)
        if l1_copy is not None:
            self._sync_down(l1_copy)
        return victim

    def fill(self, block_addr: int, state: MesiState, version: int) -> CacheBlock:
        """Install a granted line into both levels.

        The caller has already retired the hierarchy victim reported by
        :meth:`peek_fill_victim` (via ``invalidate`` + putback).
        """
        if state == MesiState.INVALID:
            raise ProtocolError("cannot fill a line in INVALID state")
        l2_block, evicted = self._l2.allocate(block_addr, int(state))
        assert evicted is None
        l2_block.dirty = state == MesiState.MODIFIED
        l2_block.version = version
        return self._install_l1(l2_block)

    def upgrade_to_modified(self, block_addr: int) -> CacheBlock:
        """S/E -> M on a local write; both copies move together."""
        l2_block = self._l2.lookup(block_addr, touch=False)
        if l2_block is None:
            raise ProtocolError(f"upgrade of uncached block {block_addr:#x}")
        l2_block.state = int(MesiState.MODIFIED)
        l2_block.dirty = True
        l1_block = self._l1.lookup(block_addr, touch=False)
        if l1_block is not None:
            l1_block.state = l2_block.state
            l1_block.dirty = True
        return l2_block

    def downgrade_to_owned(self, block_addr: int) -> CacheBlock:
        """M -> O on a remote read under MOESI (both copies stay dirty)."""
        l2_block = self._l2.lookup(block_addr, touch=False)
        if l2_block is None:
            raise ProtocolError(f"owned-downgrade of uncached block {block_addr:#x}")
        l1_block = self._l1.lookup(block_addr, touch=False)
        if l1_block is not None:
            self._sync_down(l1_block)
            l1_block.state = int(MesiState.OWNED)
        l2_block.state = int(MesiState.OWNED)
        return l2_block

    def downgrade_to_shared(self, block_addr: int) -> CacheBlock:
        """M/E -> S on a remote read (data collected by the caller)."""
        l2_block = self._l2.lookup(block_addr, touch=False)
        if l2_block is None:
            raise ProtocolError(f"downgrade of uncached block {block_addr:#x}")
        l1_block = self._l1.lookup(block_addr, touch=False)
        if l1_block is not None:
            self._sync_down(l1_block)
            l1_block.state = int(MesiState.SHARED)
            l1_block.dirty = False
        l2_block.state = int(MesiState.SHARED)
        l2_block.dirty = False
        return l2_block

    def invalidate(self, block_addr: int) -> Optional[CacheBlock]:
        """Drop the line from the whole private domain; returns the merged
        view (for writeback decisions) or None."""
        l1_block = self._l1.lookup(block_addr, touch=False)
        if l1_block is not None:
            self._sync_down(l1_block)
            self._l1.remove(block_addr)
        return self._l2.remove(block_addr)

    # -- inspection --------------------------------------------------------------------

    def iter_blocks(self) -> Iterator[CacheBlock]:
        """Authoritative private-domain contents (the L2 view)."""
        for l1_block in self._l1.iter_blocks():
            self._sync_down(l1_block)
        return self._l2.iter_blocks()

    def occupancy(self) -> int:
        """Lines in the private domain."""
        return self._l2.occupancy()

    def l1_occupancy(self) -> int:
        """Lines currently mirrored in the L1."""
        return self._l1.occupancy()

    def check_internal_inclusion(self) -> None:
        """Every L1 line must have an L2 copy (test/debug helper)."""
        for block in self._l1.iter_blocks():
            if not self._l2.contains(block.addr):
                raise ProtocolError(
                    f"core {self.core_id}: L1 line {block.addr:#x} missing from L2"
                )
