"""Stash-eligibility policy: which directory entries may be stashed.

The paper's rule: an entry tracking a **private** block — one believed
holder — can be dropped without invalidating, because at most one hidden
copy can exist and the LLC stash bit plus discovery can always find it.
Entries tracking *shared* blocks must still be invalidated on eviction
(multiple hidden copies would make write-permission grants unsafe: discovery
relies on "at most one hider").

Eligibility variants (ablation A1):

* ``ANY_PRIVATE`` — one believed holder, any permission (M/E or lone S).
  This is the paper's design and the default.
* ``EXCLUSIVE_ONLY`` — only entries whose holder has E/M permission.  A lone
  S holder arises when sharers dwindle to one; being stricter here trades
  stash coverage for fewer stale stash bits (a lone-S belief is more likely
  to be stale, since S copies are dropped silently).
"""

from __future__ import annotations

from ..common.config import StashEligibility
from ..directory.base import DirectoryEntry

# Read once: an enum member load inside a function is a class-attribute
# lookup through EnumType on every call.
_EXCLUSIVE_ONLY = StashEligibility.EXCLUSIVE_ONLY


def is_stash_eligible(entry: DirectoryEntry, eligibility: StashEligibility) -> bool:
    """May this entry be stashed instead of invalidated?"""
    if not entry.is_private():
        return False
    if eligibility is _EXCLUSIVE_ONLY:
        return entry.owner is not None
    return True

