"""LLC-delegated discovery of hidden blocks.

When the stash directory drops an entry, the block's cached copy becomes
*hidden*: resident in exactly one private cache but untracked.  The LLC line
carries a **stash bit** marking that possibility.  Discovery is the recovery
mechanism: on a directory miss for a stash-bit line (or when the LLC must
evict such a line), the home broadcasts a probe to every private cache; the
hider — if one still exists — answers with its copy's state (and data, if
dirty), and the home rebuilds precise tracking.

A broadcast that finds nobody is a **false discovery**: the hider evicted
its clean copy silently after the stash, leaving the stash bit stale.  False
discoveries cost probe/reply traffic but no correctness; the engine counts
them separately because the paper's overhead argument rests on their rarity,
and ablation A2 (explicit clean-eviction notifications) eliminates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from ..cache.l1 import L1Cache
from ..common.mesi import MesiState
from ..common.errors import ProtocolError
from ..common.stats import StatGroup
from ..noc.network import Network
from ..noc.traffic import MessageClass


class DiscoveryDemand(Enum):
    """Why the discovery runs — determines what happens to the hider's copy."""

    READ = "read"    # requester wants S: hider downgrades to SHARED
    WRITE = "write"  # requester wants M: hider invalidates
    EVICT = "evict"  # LLC eviction / back-invalidation: hider invalidates


# Enum members read once: inside :meth:`DiscoveryEngine.discover` each
# ``X.MEMBER`` load is a class-attribute lookup through EnumType.
_DEMAND_READ = DiscoveryDemand.READ
_INVALID = MesiState.INVALID
_PROBE = MessageClass.DISCOVERY_PROBE
_REPLY = MessageClass.DISCOVERY_REPLY
_WRITEBACK = MessageClass.WRITEBACK


@dataclass
class DiscoveryResult:
    """Outcome of one discovery broadcast."""

    hider: Optional[int]          # core that held the hidden copy, or None
    hider_state: MesiState        # its state *before* the action (INVALID if none)
    dirty_version: Optional[int]  # version of dirty data returned, if any
    latency: int                  # round-trip cycles (probes fly in parallel)
    fanout: int                   # number of cores probed

    @property
    def found(self) -> bool:
        """Did the broadcast locate a hidden copy?"""
        return self.hider is not None


class DiscoveryEngine:
    """Executes discovery broadcasts on behalf of LLC home banks."""

    def __init__(self, network: Network, l1s: List[L1Cache], stats: StatGroup) -> None:
        self._network = network
        self._l1s = l1s
        self._stats = stats

    def discover(
        self,
        home_tile: int,
        block_addr: int,
        demand: DiscoveryDemand,
        exclude_core: Optional[int] = None,
        candidates: Optional[List[int]] = None,
    ) -> DiscoveryResult:
        """Probe cores for a hidden copy.

        By default every core except ``exclude_core`` is probed.  With a
        presence filter enabled the home passes ``candidates`` — a
        *guaranteed superset* of the possible holders (already excluding
        ``exclude_core``) — and only those cores are probed.

        Relaxed inclusion guarantees at most one hider; finding two is a
        protocol bug and raises :class:`ProtocolError`.

        The hider's line is downgraded (READ) or invalidated (WRITE/EVICT)
        as part of its reply, and dirty data rides back with the reply (the
        extra data transfer is accounted as a writeback message).
        """
        if candidates is not None:
            probe_targets = candidates
        else:
            probe_targets = [
                l1.core_id for l1 in self._l1s if l1.core_id != exclude_core
            ]
        latency, fanout = self._network.broadcast(
            home_tile,
            probe_targets,
            _PROBE,
            _REPLY,
        )
        self._stats.add("broadcasts")
        self._stats.add("probes_sent", fanout)

        hider: Optional[int] = None
        hider_state = _INVALID
        dirty_version: Optional[int] = None
        for core in probe_targets:
            l1 = self._l1s[core]
            block = l1.probe(block_addr, touch=False)
            if block is None:
                continue
            if hider is not None:
                raise ProtocolError(
                    f"two hidden copies of {block_addr:#x} (cores {hider} and {core}): "
                    "relaxed inclusion violated"
                )
            hider = core
            hider_state = MesiState(block.state)
            was_dirty = bool(block.dirty)
            version = block.version
            if demand is _DEMAND_READ:
                l1.downgrade_to_shared(block_addr)
            else:
                l1.invalidate(block_addr)
            if was_dirty:
                dirty_version = version
                # Dirty data rides home with the reply: account the payload.
                self._network.send(core, home_tile, _WRITEBACK)

        if hider is None:
            self._stats.add("false_discoveries")
        else:
            self._stats.add("successful_discoveries")
        return DiscoveryResult(hider, hider_state, dirty_version, latency, fanout)

    # -- reporting helpers ----------------------------------------------------

    def broadcasts(self) -> float:
        """Total discovery broadcasts issued."""
        return self._stats.get("broadcasts")

    def false_rate(self) -> float:
        """Fraction of broadcasts that found nobody."""
        total = self._stats.get("broadcasts")
        if total == 0:
            return 0.0
        return self._stats.get("false_discoveries") / total
