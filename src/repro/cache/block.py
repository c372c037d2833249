"""The cache-line metadata record shared by every array in the system.

One class serves L1s, the LLC and (via composition) directory entries'
residency bookkeeping, so invariant checkers can treat them uniformly.  The
fields that only one structure uses are documented as such:

* ``state`` — MESI state in L1s; VALID/INVALID-style use in the LLC.
* ``dirty`` — LLC: line differs from memory; L1: implied by state M.
* ``stash`` — **LLC only**: the stash bit of the paper.  Set when the
  directory stashed (silently dropped) the entry tracking this block; it
  marks the line as *possibly hidden* in exactly one private cache.
* ``version`` — monotonically increasing write version used by the
  data-value invariant checker (a stand-in for the actual data payload).
"""

from __future__ import annotations


class CacheBlock:
    """Mutable per-line metadata. ``__slots__`` keeps millions of them cheap."""

    __slots__ = ("addr", "state", "dirty", "stash", "version")

    def __init__(self, addr: int, state: int, dirty: bool = False) -> None:
        self.addr = addr
        self.state = state
        self.dirty = dirty
        self.stash = False
        self.version = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.dirty:
            flags.append("dirty")
        if self.stash:
            flags.append("stash")
        extra = f" [{','.join(flags)}]" if flags else ""
        return f"CacheBlock(addr={self.addr:#x}, state={self.state}{extra})"
