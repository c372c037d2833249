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

from ..common.config import DirectoryConfig, StashEligibility
from ..common.rng import DeterministicRng
from ..common.stats import StatGroup
from ..directory.base import EvictionAction
from ..directory.sparse import SparseDirectory
from .stash_policy import is_stash_eligible

# Read once: an enum member load inside a function is a class-attribute
# lookup through EnumType on every call.
_INVALIDATE = EvictionAction.INVALIDATE
_STASH = EvictionAction.STASH
_EXCLUSIVE_ONLY = StashEligibility.EXCLUSIVE_ONLY


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
        """Prefer the LRU stash-eligible entry; invalidate only when forced.

        One scan of the set: the eligibility test is
        :func:`~repro.core.stash_policy.is_stash_eligible`, inlined, and
        ``<`` keeps the first of equally old ways, as ``lru_slot`` does.
        """
        entries = self.entries
        last_use = self._last_use
        exclusive_only = self.eligibility is _EXCLUSIVE_ONLY
        victim = -1
        oldest = 0
        for slot in slots:
            entry = entries[slot]
            if len(entry.believed) != 1 or (exclusive_only and entry.owner is None):
                continue
            use = last_use[slot]
            if victim < 0 or use < oldest:
                victim = slot
                oldest = use
        if victim >= 0:
            return victim, _STASH
        self.stats.add("forced_invalidations")
        return self.lru_slot(slots), _INVALIDATE

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
