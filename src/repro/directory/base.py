"""Directory interface and the per-block entry record.

Terminology (used consistently across the library):

* **believed holders** — the set of cores the directory *thinks* hold the
  block.  Because clean L1 evictions are silent, this can be a superset of
  the true holders; it is exactly what precise hardware (a full bit vector)
  would popcount.  The paper's *private block* test — "this entry tracks
  exactly one sharer" — is a test on the believed set.
* **targets** — the cores an invalidation must be sent to, derived from the
  entry's hardware sharer representation.  For imprecise formats this is a
  superset of the believed holders.

So: ``true holders ⊆ believed holders ⊆ targets``.

A directory organization implements :class:`Directory`.  Allocation returns
an :class:`AllocationResult` ``(entry, eviction)``; when the organization
had to displace an existing entry, the result carries an :class:`Eviction`
``(entry, action)`` whose ``action`` tells the protocol engine what the
displacement means:

* ``EvictionAction.INVALIDATE`` — conventional behaviour: every cached copy
  of the victim block must be invalidated to preserve strict inclusion.
* ``EvictionAction.STASH`` — the stash directory's relaxed behaviour: the
  entry is dropped silently and the protocol must set the victim block's LLC
  stash bit; the cached copy survives, hidden.

Both records are :class:`~typing.NamedTuple` s, built once per allocation:
an organization's allocation path builds them with ``tuple.__new__(cls,
(a, b))``, one C call, where a dataclass constructor or a NamedTuple's
generated ``__new__`` would open a Python frame.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, List, NamedTuple, Optional, Set

from ..common.config import DirectoryConfig
from ..common.errors import DirectoryError
from .sharers import SharerRep


class DirEntryState(Enum):
    """Coarse directory-entry state: who may have write permission."""

    EXCLUSIVE = "exclusive"  # one core granted E/M; ``owner`` names it
    SHARED = "shared"        # one or more cores with read permission


class DirectoryEntry:
    """Tracking record for one block."""

    __slots__ = ("addr", "owner", "believed", "rep")

    def __init__(self, addr: int, rep: SharerRep) -> None:
        self.addr = addr
        self.owner: Optional[int] = None
        self.believed: Set[int] = set()
        self.rep = rep

    # -- transitions ----------------------------------------------------------

    def grant_exclusive(self, core: int) -> None:
        """The block was handed to ``core`` in E/M; nobody else has a copy."""
        self.believed = {core}
        self.rep.clear()
        self.rep.add(core)
        self.owner = core

    def add_sharer(self, core: int) -> None:
        """``core`` obtained a read copy."""
        self.believed.add(core)
        self.rep.add(core)

    def demote_owner(self) -> None:
        """The exclusive owner was downgraded to a plain sharer."""
        self.owner = None

    def remove_core(self, core: int) -> None:
        """``core`` provably lost its copy (inval ack, PutM, discovery...)."""
        self.believed.discard(core)
        self.rep.remove(core)
        if self.owner == core:
            self.owner = None

    # -- queries ---------------------------------------------------------------

    @property
    def state(self) -> DirEntryState:
        """EXCLUSIVE when an owner pointer is live, else SHARED."""
        return DirEntryState.EXCLUSIVE if self.owner is not None else DirEntryState.SHARED

    def believed_count(self) -> int:
        """Exact count of believed holders (the hardware sharer counter)."""
        return len(self.believed)

    def is_private(self) -> bool:
        """The paper's stash-eligibility core test: exactly one tracked holder."""
        return len(self.believed) == 1

    def is_empty(self) -> bool:
        """No believed holders remain — the entry is dead weight."""
        return not self.believed

    def sole_holder(self) -> int:
        """The single believed holder of a private entry."""
        if len(self.believed) != 1:
            raise DirectoryError(f"entry {self.addr:#x} is not private")
        return next(iter(self.believed))

    def targets(self) -> List[int]:
        """Cores an invalidation of this block must be sent to."""
        return self.rep.targets()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DirectoryEntry(addr={self.addr:#x}, owner={self.owner}, "
            f"believed={sorted(self.believed)})"
        )


class EvictionAction(Enum):
    """What a displaced directory entry requires of the protocol."""

    INVALIDATE = "invalidate"
    STASH = "stash"


class Eviction(NamedTuple):
    """A displaced entry plus the action it requires."""

    entry: DirectoryEntry
    action: EvictionAction


class AllocationResult(NamedTuple):
    """Outcome of :meth:`Directory.allocate`: the new entry and any eviction."""

    entry: DirectoryEntry
    eviction: Optional[Eviction] = None


class Directory:
    """Abstract directory organization.

    Concrete organizations: :class:`~repro.directory.ideal.IdealDirectory`,
    :class:`~repro.directory.sparse.SparseDirectory`,
    :class:`~repro.directory.cuckoo.CuckooDirectory`, and the contribution,
    :class:`~repro.core.stash_directory.StashDirectory`.
    """

    def __init__(self, config: DirectoryConfig, num_cores: int, capacity: int) -> None:
        self.config = config
        self.num_cores = num_cores
        self.capacity = capacity

    # -- protocol-facing operations ---------------------------------------------

    def lookup(self, addr: int, touch: bool = True) -> Optional[DirectoryEntry]:
        """Entry tracking ``addr`` or None (a *directory miss*)."""
        raise NotImplementedError

    def allocate(self, addr: int) -> AllocationResult:
        """Install a fresh (empty) entry for ``addr``.

        Raises:
            DirectoryError: if ``addr`` is already tracked.
        """
        raise NotImplementedError

    def deallocate(self, addr: int) -> None:
        """Remove the entry for ``addr`` (no-op if absent)."""
        raise NotImplementedError

    # -- inspection ----------------------------------------------------------------

    def occupancy(self) -> int:
        """Number of live entries."""
        raise NotImplementedError

    def iter_entries(self) -> Iterator[DirectoryEntry]:
        """All live entries (deterministic order, for invariant checks)."""
        raise NotImplementedError

    def obs_gauges(self) -> dict:
        """Instantaneous gauges the epoch sampler snapshots (repro.obs).

        Organizations override to add structure-specific gauges (full
        sets, load factor, private-entry population...).  Off the hot
        path: called once per epoch, never per operation.
        """
        occupancy = self.occupancy()
        gauges = {"occupancy": occupancy}
        if self.capacity:
            gauges["utilization"] = occupancy / self.capacity
        return gauges

    def contains(self, addr: int) -> bool:
        """Presence test without touching replacement state."""
        return self.lookup(addr, touch=False) is not None
