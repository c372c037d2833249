"""Unit tests for the stash directory's victim policy — the contribution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import DirectoryConfig, DirectoryKind, StashEligibility
from repro.common.errors import DirectoryError
from repro.common.rng import DeterministicRng
from repro.common.stats import StatGroup
from repro.core.stash_directory import StashDirectory
from repro.core.stash_policy import is_stash_eligible
from repro.directory.base import EvictionAction
from repro.directory.sparse import SparseDirectory
from tests.conftest import LruModel


def make_stash(entries=4, ways=2, num_cores=4, eligibility=StashEligibility.ANY_PRIVATE):
    return StashDirectory(
        DirectoryConfig(
            kind=DirectoryKind.STASH, ways=ways, stash_eligibility=eligibility
        ),
        num_cores=num_cores,
        entries=entries,
        rng=DeterministicRng(1),
        stats=StatGroup("dir"),
    )


def fill_set_zero(d, specs):
    """Allocate entries mapping to set 0 (addrs 0, 2, 4 ... for 2 sets)."""
    for addr, holders in specs:
        entry = d.allocate(addr).entry
        if len(holders) == 1:
            entry.grant_exclusive(holders[0])
        else:
            for core in holders:
                entry.add_sharer(core)


class TestStashVictimSelection:
    def test_private_victim_is_stashed(self):
        d = make_stash()
        fill_set_zero(d, [(0, [1]), (2, [2])])
        result = d.allocate(4)
        assert result.eviction is not None
        assert result.eviction.action is EvictionAction.STASH

    def test_shared_entries_force_invalidation(self):
        d = make_stash()
        fill_set_zero(d, [(0, [1, 2]), (2, [2, 3])])
        result = d.allocate(4)
        assert result.eviction.action is EvictionAction.INVALIDATE
        assert d.stats.get("forced_invalidations") == 1

    def test_private_preferred_over_lru_shared(self):
        d = make_stash()
        # Entry 0 is shared (LRU), entry 2 is private (MRU).
        fill_set_zero(d, [(0, [1, 2]), (2, [3])])
        result = d.allocate(4)
        # Even though 0 is older, the private entry 2 must be the victim.
        assert result.eviction.entry.addr == 2
        assert result.eviction.action is EvictionAction.STASH

    def test_lru_among_eligible(self):
        d = make_stash(entries=8, ways=4)
        fill_set_zero(d, [(0, [1]), (2, [2]), (4, [3]), (6, [0])])
        d.lookup(0)  # 2 becomes the LRU private entry
        result = d.allocate(8)
        assert result.eviction.entry.addr == 2

    def test_eviction_stats_by_action(self):
        d = make_stash()
        fill_set_zero(d, [(0, [1]), (2, [2])])
        d.allocate(4)
        assert d.stats.get("evictions_stash") == 1
        assert d.stats.get("evictions_invalidate") == 0


class TestEligibilityVariants:
    def test_exclusive_only_skips_lone_sharer(self):
        d = make_stash(eligibility=StashEligibility.EXCLUSIVE_ONLY)
        # Lone-S entries: private but not E/M.
        fill_set_zero(d, [(0, [1]), (2, [2])])
        for addr in (0, 2):
            d.lookup(addr, touch=False).demote_owner()
        # Force them into shared-style (no owner) lone-S form.
        result = d.allocate(4)
        assert result.eviction.action is EvictionAction.INVALIDATE

    def test_exclusive_only_still_stashes_owners(self):
        d = make_stash(eligibility=StashEligibility.EXCLUSIVE_ONLY)
        fill_set_zero(d, [(0, [1]), (2, [2])])
        # grant_exclusive in the helper set owners; both are eligible.
        result = d.allocate(4)
        assert result.eviction.action is EvictionAction.STASH


class TestInheritedBehaviour:
    def test_is_sparse_structurally(self):
        d = make_stash()
        d.allocate(0)
        assert d.lookup(0).addr == 0
        d.deallocate(0)
        assert d.occupancy() == 0


@settings(max_examples=100)
@given(
    stash=st.booleans(),
    eligibility=st.sampled_from(list(StashEligibility)),
    sets=st.sampled_from([1, 2, 4]),
    ways=st.integers(1, 4),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["alloc", "alloc", "dealloc", "lookup", "peek", "contains"]),
            st.integers(0, 11),
            st.integers(0, 3),
        ),
        min_size=40,
        max_size=200,
    ),
)
def test_property_victims_match_lru_model(stash, eligibility, sets, ways, ops):
    """Sparse evicts the LRU entry; stash the LRU stash-eligible one first.

    Eligibility is what :func:`is_stash_eligible` says of the entry, under
    either variant, for empty, exclusive, shared and lone-sharer entries.
    A stash directory invalidates (and counts a forced invalidation) only
    when no entry in the full set is eligible.  Lookups without a touch,
    ``contains`` and iteration leave the LRU order alone.
    """
    kind, cls = (
        (DirectoryKind.STASH, StashDirectory) if stash
        else (DirectoryKind.SPARSE, SparseDirectory)
    )
    d = cls(
        DirectoryConfig(kind=kind, ways=ways, stash_eligibility=eligibility),
        num_cores=4,
        entries=sets * ways,
        rng=DeterministicRng(1),
        stats=StatGroup("dir"),
    )
    model = LruModel(sets, ways)
    eligible = {}  # addr -> the entry may be stashed
    forced = 0
    for op, addr, holders in ops:
        if op == "alloc":
            if addr in model:
                with pytest.raises(DirectoryError):
                    d.allocate(addr)
                continue
            expected = model.victim(addr, eligible.__getitem__ if stash else None)
            result = d.allocate(addr)
            model.fill(addr, expected)
            # holders: 0 none, 1 an exclusive owner, 2 two sharers, 3 a
            # lone sharer (private, but not exclusive).
            if holders == 1:
                result.entry.grant_exclusive(0)
            for core in range({2: 2, 3: 1}.get(holders, 0)):
                result.entry.add_sharer(core)
            eligible[addr] = is_stash_eligible(result.entry, eligibility)
            if expected is None:
                assert result.eviction is None
            else:
                assert result.eviction.entry.addr == expected
                stashed = stash and eligible[expected]
                assert result.eviction.action is (
                    EvictionAction.STASH if stashed else EvictionAction.INVALIDATE
                )
                forced += stash and not stashed
        elif op == "dealloc":
            d.deallocate(addr)
            if addr in model:
                model.remove(addr)
        elif op == "lookup":
            entry = d.lookup(addr)
            assert (entry is not None) == (addr in model)
            if entry is not None:
                model.touch(addr)
        elif op == "peek":
            assert (d.lookup(addr, touch=False) is not None) == (addr in model)
        else:
            assert d.contains(addr) == (addr in model)
        assert [e.addr for e in d.iter_entries()] == model.set_major()
    assert d.occupancy() == len(model.set_major())
    for s in range(sets):
        assert d.set_occupancy(s) == len(model.order[s])
    assert d.stats.get("forced_invalidations") == forced
