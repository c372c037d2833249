"""Coherence states (MESI, plus MOESI's Owned) and small predicates.

The protocol engine uses plain :class:`enum.IntEnum` members so states can be
stored directly in :class:`~repro.cache.block.CacheBlock.state` (an int slot)
without boxing overhead on the hot path.

The OWNED state only arises when the system runs the MOESI protocol
(:class:`CoherenceProtocol.MOESI`): a dirty line whose owner services other
readers instead of writing back to the LLC.
"""

from __future__ import annotations

from enum import Enum, IntEnum


class CoherenceProtocol(str, Enum):
    """Which stable-state protocol the private caches run."""

    MESI = "mesi"      # the paper's protocol (default)
    MOESI = "moesi"    # adds Owned: dirty sharing, owner-supplied data


class MesiState(IntEnum):
    """Stable states of a line in a private cache.

    The trace-driven engine processes each memory operation atomically, so
    transient states never need to be materialized; every private line is
    always in one of these stable states (OWNED only under MOESI).
    """

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    MODIFIED = 3
    OWNED = 4


def can_read(state: MesiState) -> bool:
    """May a core read a line in this state without a coherence action?"""
    return state in (
        MesiState.SHARED,
        MesiState.EXCLUSIVE,
        MesiState.MODIFIED,
        MesiState.OWNED,
    )


def can_write(state: MesiState) -> bool:
    """May a core write a line in this state without a coherence action?

    E allows a silent upgrade to M, so it counts as writable: the write
    itself needs no protocol message.
    """
    return state in (MesiState.EXCLUSIVE, MesiState.MODIFIED)


class LlcState(IntEnum):
    """Validity of a line in the shared LLC (data home)."""

    INVALID = 0
    VALID = 1
