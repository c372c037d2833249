"""The Stash Directory — the paper's contribution.

Structurally identical to the conventional sparse directory (same sets, same
ways, same entry format, same LRU); the entire design difference is the
**victim policy** when a set overflows:

1. If any entry in the set is *stash-eligible* (tracks a private block, see
   :mod:`repro.core.stash_policy`), evict the least-recently-used eligible
   entry with action ``STASH``: the protocol drops it silently and sets the
   LLC stash bit of the victim block.  **No cached copy is invalidated** —
   this is the relaxed-inclusion property.
2. Otherwise (every entry tracks a shared block), fall back to conventional
   behaviour: LRU victim, action ``INVALIDATE``.

Because most tracked blocks are private in practice, case 1 dominates and
the stash directory under heavy conflict pressure behaves like a directory
with far more effective capacity — the paper's headline is matching a
fully-provisioned sparse directory with 1/8 of the entries.
"""

from __future__ import annotations

from typing import Tuple

from ..common.config import DirectoryConfig
from ..common.rng import DeterministicRng
from ..common.stats import StatGroup
from ..directory.base import EvictionAction
from ..directory.sparse import SparseDirectory
from .stash_policy import eligible_ways, is_stash_eligible


class StashDirectory(SparseDirectory):
    """Sparse directory with stash-before-invalidate victim selection."""

    def __init__(
        self,
        config: DirectoryConfig,
        num_cores: int,
        entries: int,
        rng: DeterministicRng,
        stats: StatGroup,
    ) -> None:
        super().__init__(config, num_cores, entries, rng, stats)
        self.eligibility = config.stash_eligibility

    def choose_victim(self, slots: range) -> Tuple[int, EvictionAction]:
        """Prefer the LRU stash-eligible entry; invalidate only when forced."""
        eligible = eligible_ways(
            self.entries[slots.start:slots.stop], slots, self.eligibility
        )
        if eligible:
            return self.lru_slot(eligible), EvictionAction.STASH
        self.stats.add("forced_invalidations")
        return self.lru_slot(slots), EvictionAction.INVALIDATE

    def obs_gauges(self) -> dict:
        gauges = super().obs_gauges()
        private = 0
        eligible = 0
        for entry in self.iter_entries():
            if entry.is_private():
                private += 1
            if is_stash_eligible(entry, self.eligibility):
                eligible += 1
        gauges["private_entries"] = private
        gauges["stash_eligible_entries"] = eligible
        return gauges
