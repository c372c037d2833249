"""Sharer-set representations for directory entries.

A directory entry must encode *which* private caches hold the block.  The
paper's storage argument depends on this encoding, and the protocol's
invalidation traffic depends on its precision, so we implement the three
classic formats:

* **Full bit vector** — one presence bit per core; exact.
* **Coarse vector** — one bit per *group* of cores; invalidations go to every
  core of a marked group, so imprecision costs spurious invalidation
  messages (each finds nothing and is acked empty).
* **Limited pointers** — up to *k* explicit core ids; on overflow the entry
  degrades to broadcast-on-invalidate (the classic Dir\\ :sub:`i`\\ B scheme).
* **Hierarchical** — SCD-style two-level encoding for many-core systems:
  cores are grouped into clusters of ``cluster`` cores; each tracked cluster
  holds up to ``pointers`` explicit within-cluster ids and degrades to a
  sticky whole-cluster bit on overflow.  Storage grows with the *cluster
  count* (O(sqrt N) bytes per entry at the auto cluster size), which is what
  keeps 1024-core entries small (see :func:`HierarchicalRep.storage_bits`).
  A configured system always uses the auto cluster size and
  :data:`HIER_POINTERS` pointers.

All three keep an exact *sharer counter* alongside (a handful of bits in
hardware, standard practice); the stash directory's private-block test reads
this counter, which is why stashing composes with any format.

``targets()`` returns the set of cores an invalidation must be sent to — an
**over-approximation** of the true holders for the imprecise formats.  The
protocol sends to every target; targets that do not hold the line simply ack
without data, and those messages are what the A3 ablation measures.

:func:`make_sharer_rep` and :func:`sharer_storage_bits` take the
:class:`~repro.common.config.DirectoryConfig` itself, so the directories and
the area model read the format's parameters only here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

from ..common.config import DirectoryConfig, SharerFormat
from ..common.errors import ConfigError

#: Within-cluster pointers of a hierarchical entry, on both engines.
HIER_POINTERS = 2


class SharerRep:
    """Interface every sharer representation implements.

    ``num_cores`` is the system core count; implementations may hold
    format-specific parameters.

    **Validation happens here, once.**  Every concrete constructor routes
    its format parameters through ``__init__`` so a bad value fails with a
    clear error naming the representation, whether it was constructed
    directly or by :func:`make_sharer_rep` from a sweep config.
    ``num_cores`` that is *not* a multiple of the group/cluster size stays
    legal by design — the tail group is simply short, and ``targets()``
    clamps it (pinned by the property tests at N up to 1024, including
    non-power-of-two tails).  ``fresh()`` clones only already-validated
    templates, so it may skip these checks on the allocation path.
    """

    def __init__(self, num_cores: int, **params: int) -> None:
        name = type(self).__name__
        if not isinstance(num_cores, int) or num_cores < 1:
            raise ConfigError(
                f"{name} needs num_cores >= 1, got {num_cores!r}"
            )
        self.num_cores = num_cores
        for key, value in params.items():
            if not isinstance(value, int) or value < 1:
                raise ConfigError(
                    f"{name} needs {key} >= 1, got {value!r} "
                    f"(num_cores={num_cores})"
                )

    def add(self, core: int) -> None:
        """Record that ``core`` obtained a copy."""
        raise NotImplementedError

    def remove(self, core: int) -> None:
        """Record that ``core``'s copy is gone (best effort for imprecise
        formats — they may be unable to clear their encoding)."""
        raise NotImplementedError

    def clear(self) -> None:
        """Forget all sharers."""
        raise NotImplementedError

    def targets(self) -> List[int]:
        """Cores an invalidation must reach (superset of true holders)."""
        raise NotImplementedError

    def fresh(self) -> "SharerRep":
        """A new empty representation with this instance's parameters.

        Directories allocate one representation per entry; cloning from a
        validated template skips the factory dispatch and parameter checks
        of :func:`make_sharer_rep` on the allocation path.
        """
        raise NotImplementedError

    @staticmethod
    def storage_bits(num_cores: int, **params: int) -> int:
        """Bits this format occupies per entry (for the area model).

        Takes the constructor's format parameters, with the same defaults.
        """
        raise NotImplementedError


class FullBitVector(SharerRep):
    """Exact one-bit-per-core presence vector (an int bitmask)."""

    __slots__ = ("num_cores", "mask")

    def __init__(self, num_cores: int) -> None:
        super().__init__(num_cores)
        self.mask = 0

    def add(self, core: int) -> None:
        self.mask |= 1 << core

    def remove(self, core: int) -> None:
        self.mask &= ~(1 << core)

    def clear(self) -> None:
        self.mask = 0

    def targets(self) -> List[int]:
        result = []
        mask = self.mask
        core = 0
        while mask:
            if mask & 1:
                result.append(core)
            mask >>= 1
            core += 1
        return result

    def fresh(self) -> "FullBitVector":
        rep = FullBitVector.__new__(FullBitVector)
        rep.num_cores = self.num_cores
        rep.mask = 0
        return rep

    @staticmethod
    def storage_bits(num_cores: int) -> int:
        return num_cores


class CoarseVector(SharerRep):
    """One bit per group of ``group`` cores.

    ``remove`` cannot clear a group bit (another group member might still
    hold a copy), so bits only accumulate until ``clear``; this is the real
    hardware behaviour and the source of its spurious invalidations.
    """

    __slots__ = ("num_cores", "group", "mask")

    def __init__(self, num_cores: int, group: int = 4) -> None:
        super().__init__(num_cores, group=group)
        self.group = group
        self.mask = 0

    def add(self, core: int) -> None:
        self.mask |= 1 << (core // self.group)

    def remove(self, core: int) -> None:
        # A single departure cannot prove the whole group empty.
        pass

    def clear(self) -> None:
        self.mask = 0

    def targets(self) -> List[int]:
        # The last group is short when num_cores is not a multiple of the
        # group size; the clamp keeps a lit tail-group bit from naming
        # cores that do not exist (which would address past the end of
        # the invalidation fan-out).
        result = []
        num_groups = (self.num_cores + self.group - 1) // self.group
        for g in range(num_groups):
            if self.mask & (1 << g):
                start = g * self.group
                result.extend(range(start, min(start + self.group, self.num_cores)))
        return result

    def fresh(self) -> "CoarseVector":
        rep = CoarseVector.__new__(CoarseVector)
        rep.num_cores = self.num_cores
        rep.group = self.group
        rep.mask = 0
        return rep

    @staticmethod
    def storage_bits(num_cores: int, group: int = 4) -> int:
        return (num_cores + group - 1) // group


class LimitedPointer(SharerRep):
    """Up to ``pointers`` explicit core ids, broadcast on overflow."""

    __slots__ = ("num_cores", "pointers", "ids", "overflowed")

    def __init__(self, num_cores: int, pointers: int = 4) -> None:
        super().__init__(num_cores, pointers=pointers)
        self.pointers = pointers
        self.ids: List[int] = []
        self.overflowed = False

    def add(self, core: int) -> None:
        if self.overflowed or core in self.ids:
            return
        if len(self.ids) < self.pointers:
            self.ids.append(core)
        else:
            self.overflowed = True
            self.ids.clear()

    def remove(self, core: int) -> None:
        # After degrade-to-broadcast the pointer list is empty and which
        # cores it named is unrecoverable: a departure must NOT clear the
        # overflow flag (that would silently forget the unnamed sharers)
        # and must not touch the (empty) list.  Precision returns only via
        # clear() when the entry's sharer counter proves nobody is left.
        if not self.overflowed and core in self.ids:
            self.ids.remove(core)

    def clear(self) -> None:
        self.ids.clear()
        self.overflowed = False

    def targets(self) -> List[int]:
        if self.overflowed:
            return list(range(self.num_cores))
        return list(self.ids)

    def fresh(self) -> "LimitedPointer":
        rep = LimitedPointer.__new__(LimitedPointer)
        rep.num_cores = self.num_cores
        rep.pointers = self.pointers
        rep.ids = []
        rep.overflowed = False
        return rep

    @staticmethod
    def storage_bits(num_cores: int, pointers: int = 4) -> int:
        ptr_bits = max(1, (num_cores - 1).bit_length())
        return pointers * ptr_bits + 1  # +1 overflow bit


def hier_auto_cluster(num_cores: int) -> int:
    """Default hierarchical cluster size: ``ceil(sqrt(num_cores))``.

    Balances the two levels — cluster count and within-cluster pointer
    width both grow as sqrt(N), which is what keeps the per-entry storage
    sub-linear (the SCD scaling argument).
    """
    if num_cores < 1:
        raise ConfigError("hier_auto_cluster needs num_cores >= 1")
    root = 1
    while root * root < num_cores:
        root += 1
    return root


class HierarchicalRep(SharerRep):
    """SCD-style two-level sharer set: per-cluster pointers + overflow bits.

    Cores are grouped into clusters of ``cluster`` consecutive ids.  Each
    *tracked* cluster holds up to ``pointers`` exact within-cluster core
    ids; adding one more overflows that cluster to a **sticky** coarse bit
    (invalidations then target the whole cluster, like one CoarseVector
    group).  Other clusters keep their precision — imprecision is local,
    unlike :class:`LimitedPointer` where one overflow degrades the whole
    entry to a machine-wide broadcast.

    ``remove`` clears a pointer exactly but cannot un-overflow a cluster
    (which cores the cluster named is unrecoverable, same argument as the
    limited-pointer overflow bit); precision returns via ``clear``.

    ``cluster=0`` auto-sizes to ``ceil(sqrt(num_cores))``; the tail cluster
    is short when ``cluster`` does not divide ``num_cores`` and
    ``targets()`` clamps it, exactly like the coarse tail group.
    """

    __slots__ = ("num_cores", "cluster", "pointers", "ids", "ovf")

    def __init__(
        self, num_cores: int, cluster: int = 0, pointers: int = HIER_POINTERS
    ) -> None:
        if cluster == 0:
            cluster = hier_auto_cluster(max(num_cores, 1))
        super().__init__(num_cores, cluster=cluster, pointers=pointers)
        self.cluster = cluster
        self.pointers = pointers
        # cluster index -> exact core ids (absent = untracked or overflowed).
        self.ids: Dict[int, List[int]] = {}
        self.ovf = 0  # bitmask of overflowed clusters

    def add(self, core: int) -> None:
        c = core // self.cluster
        if self.ovf & (1 << c):
            return
        ids = self.ids.get(c)
        if ids is None:
            self.ids[c] = [core]
            return
        if core in ids:
            return
        if len(ids) < self.pointers:
            ids.append(core)
        else:
            self.ovf |= 1 << c
            del self.ids[c]

    def remove(self, core: int) -> None:
        # Exact within a precise cluster; a sticky overflowed cluster
        # cannot prove itself empty (same reasoning as LimitedPointer).
        c = core // self.cluster
        if self.ovf & (1 << c):
            return
        ids = self.ids.get(c)
        if ids is not None and core in ids:
            ids.remove(core)
            if not ids:
                del self.ids[c]

    def clear(self) -> None:
        self.ids.clear()
        self.ovf = 0

    def targets(self) -> List[int]:
        # Ascending cluster order, pointer insertion order within a precise
        # cluster; the tail cluster is clamped to existing cores.
        result: List[int] = []
        cluster = self.cluster
        n = self.num_cores
        num_clusters = (n + cluster - 1) // cluster
        ids = self.ids
        ovf = self.ovf
        for c in range(num_clusters):
            if ovf & (1 << c):
                start = c * cluster
                result.extend(range(start, min(start + cluster, n)))
            else:
                got = ids.get(c)
                if got:
                    result.extend(got)
        return result

    def fresh(self) -> "HierarchicalRep":
        rep = HierarchicalRep.__new__(HierarchicalRep)
        rep.num_cores = self.num_cores
        rep.cluster = self.cluster
        rep.pointers = self.pointers
        rep.ids = {}
        rep.ovf = 0
        return rep

    @staticmethod
    def storage_bits(
        num_cores: int, cluster: int = 0, pointers: int = HIER_POINTERS
    ) -> int:
        cluster = cluster or hier_auto_cluster(num_cores)
        num_clusters = (num_cores + cluster - 1) // cluster
        ptr_bits = max(1, (cluster - 1).bit_length())
        # Per cluster: a valid bit, an overflow bit and the pointer file.
        return num_clusters * (2 + pointers * ptr_bits)


def _sharer_format(config: DirectoryConfig) -> Tuple[Type[SharerRep], Dict[str, int]]:
    """The representation class of ``config``'s sharer format and its
    constructor parameters."""
    fmt = config.sharer_format
    if fmt is SharerFormat.FULL_BIT_VECTOR:
        return FullBitVector, {}
    if fmt is SharerFormat.COARSE_VECTOR:
        return CoarseVector, {"group": config.coarse_group}
    if fmt is SharerFormat.LIMITED_POINTER:
        return LimitedPointer, {"pointers": config.limited_pointers}
    if fmt is SharerFormat.HIERARCHICAL:
        return HierarchicalRep, {}
    raise ConfigError(f"unknown sharer format {fmt!r}")  # pragma: no cover


def make_sharer_rep(config: DirectoryConfig, num_cores: int) -> SharerRep:
    """An empty, validated representation of ``config``'s sharer format."""
    cls, params = _sharer_format(config)
    return cls(num_cores, **params)


def sharer_storage_bits(config: DirectoryConfig, num_cores: int) -> int:
    """Bits per entry of ``config``'s sharer format (area model entry point)."""
    cls, params = _sharer_format(config)
    return cls.storage_bits(num_cores, **params)
