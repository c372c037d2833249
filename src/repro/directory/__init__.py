"""Directory organizations: interface, baselines and the factory.

The contribution (:class:`~repro.core.StashDirectory`) lives in
:mod:`repro.core`; :func:`make_directory` builds any of the four kinds from
a :class:`~repro.common.config.DirectoryConfig`.
"""

from __future__ import annotations

from ..common.config import DirectoryConfig, DirectoryKind
from ..common.errors import ConfigError
from ..common.rng import DeterministicRng
from ..common.stats import StatGroup
from .base import (
    AllocationResult,
    DirEntryState,
    Directory,
    DirectoryEntry,
    Eviction,
    EvictionAction,
)
from .cuckoo import CuckooDirectory
from .hierarchical import ScdDirectory
from .ideal import IdealDirectory
from .sharers import (
    CoarseVector,
    FullBitVector,
    HierarchicalRep,
    LimitedPointer,
    SharerRep,
    hier_auto_cluster,
    make_sharer_rep,
    sharer_storage_bits,
)
from .sparse import SparseDirectory
from .timestamp import TardisEntry, TimestampDirectory

__all__ = [
    "DIRECTORY_RNG_STREAM",
    "AllocationResult",
    "CoarseVector",
    "CuckooDirectory",
    "DirEntryState",
    "Directory",
    "DirectoryEntry",
    "Eviction",
    "EvictionAction",
    "FullBitVector",
    "HierarchicalRep",
    "IdealDirectory",
    "LimitedPointer",
    "SharerRep",
    "ScdDirectory",
    "SparseDirectory",
    "TardisEntry",
    "TimestampDirectory",
    "hier_auto_cluster",
    "make_directory",
    "make_sharer_rep",
    "sharer_storage_bits",
]

#: ``DeterministicRng.spawn`` id of the directory's own random stream, a
#: child of the system seed.  The cuckoo directory draws its displacement
#: ways from it, in the interpreter and in the vector engine's flat model.
DIRECTORY_RNG_STREAM = 3000


def make_directory(
    config: DirectoryConfig,
    num_cores: int,
    entries: int,
    rng: DeterministicRng,
    stats: StatGroup,
) -> Directory:
    """Instantiate the directory organization ``config.kind`` requests.

    ``entries`` is the resolved capacity (see
    :meth:`~repro.common.config.DirectoryConfig.entries_for`); the IDEAL
    kind ignores it.
    """
    if config.kind is DirectoryKind.IDEAL:
        return IdealDirectory(config, num_cores, stats)
    if config.kind is DirectoryKind.IN_LLC:
        # Behaviourally an unbounded directory: entries exist exactly for
        # LLC-resident blocks (the protocol deallocates on LLC eviction),
        # so embedding a sharer vector in every LLC line never conflicts.
        # The difference from IDEAL is purely the storage model (see
        # repro.energy.area).
        return IdealDirectory(config, num_cores, stats)
    if config.kind is DirectoryKind.TARDIS:
        # No sharer tracking: per-block timestamps living in the LLC tag
        # array.  Entries exist exactly for LLC-resident blocks, like
        # IN_LLC; the protocol logic lives in repro.coherence.tardis.
        return TimestampDirectory(config, num_cores, stats)
    if config.kind is DirectoryKind.SPARSE:
        return SparseDirectory(config, num_cores, entries, rng, stats)
    if config.kind is DirectoryKind.CUCKOO:
        return CuckooDirectory(config, num_cores, entries, rng, stats)
    if config.kind is DirectoryKind.SCD:
        return ScdDirectory(config, num_cores, entries, rng, stats)
    if config.kind is DirectoryKind.STASH:
        from ..core.stash_directory import StashDirectory

        return StashDirectory(config, num_cores, entries, rng, stats)
    if config.kind is DirectoryKind.ADAPTIVE_STASH:
        from ..core.adaptive import AdaptiveStashDirectory

        return AdaptiveStashDirectory(config, num_cores, entries, rng, stats)
    raise ConfigError(f"unknown directory kind {config.kind!r}")  # pragma: no cover
