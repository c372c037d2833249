"""Unit tests for stash-eligibility rules."""

from repro.common.config import StashEligibility
from repro.core.stash_policy import is_stash_eligible
from repro.directory.base import DirectoryEntry
from repro.directory.sharers import FullBitVector


def entry_with(owner=None, sharers=()):
    entry = DirectoryEntry(0x10, FullBitVector(16))
    if owner is not None:
        entry.grant_exclusive(owner)
    for core in sharers:
        entry.add_sharer(core)
    return entry


class TestAnyPrivate:
    def test_exclusive_entry_eligible(self):
        assert is_stash_eligible(entry_with(owner=3), StashEligibility.ANY_PRIVATE)

    def test_lone_sharer_eligible(self):
        assert is_stash_eligible(entry_with(sharers=[2]), StashEligibility.ANY_PRIVATE)

    def test_two_sharers_not_eligible(self):
        assert not is_stash_eligible(
            entry_with(sharers=[2, 5]), StashEligibility.ANY_PRIVATE
        )

    def test_empty_entry_not_eligible(self):
        assert not is_stash_eligible(entry_with(), StashEligibility.ANY_PRIVATE)


class TestExclusiveOnly:
    def test_exclusive_entry_eligible(self):
        assert is_stash_eligible(entry_with(owner=3), StashEligibility.EXCLUSIVE_ONLY)

    def test_lone_sharer_not_eligible(self):
        assert not is_stash_eligible(
            entry_with(sharers=[2]), StashEligibility.EXCLUSIVE_ONLY
        )

    def test_demoted_owner_not_eligible(self):
        entry = entry_with(owner=3)
        entry.demote_owner()
        assert not is_stash_eligible(entry, StashEligibility.EXCLUSIVE_ONLY)
        assert is_stash_eligible(entry, StashEligibility.ANY_PRIVATE)

