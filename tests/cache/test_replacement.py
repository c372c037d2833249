"""Unit + property tests for LRU replacement.

LRU is the one replacement the tag arrays implement: :class:`CacheArray`
evicts a full set's least recently used line, and the sparse directories
pick the least recently used of a set's slots (or of a subset of them, as
the stash directory does).  Each test fills one set whose ways hold the
block addresses ``0 .. ways-1``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.array import CacheArray
from repro.common.config import CacheConfig, DirectoryConfig, DirectoryKind
from repro.common.rng import DeterministicRng
from repro.common.stats import StatGroup
from repro.directory.sparse import SparseDirectory


def filled_array(ways):
    """A one-set array with block ``w`` filled into way ``w``."""
    array = CacheArray(CacheConfig(sets=1, ways=ways), StatGroup("array"))
    for way in range(ways):
        array.allocate(way, state=1)
    return array


def victim(array, ways):
    """The block a fill of a new address would evict."""
    return array.peek_victim(ways).addr


def filled_directory(ways):
    """A one-set sparse directory with block ``w`` in slot ``w``."""
    directory = SparseDirectory(
        DirectoryConfig(kind=DirectoryKind.SPARSE, ways=ways),
        num_cores=4,
        entries=ways,
        rng=DeterministicRng(11),
        stats=StatGroup("dir"),
    )
    for way in range(ways):
        directory.allocate(way)
    return directory


class TestLru:
    def test_victim_is_least_recent(self):
        array = filled_array(4)
        array.lookup(0)  # 1 is now least recent
        assert victim(array, 4) == 1

    def test_stack_order(self):
        array = filled_array(3)
        array.lookup(0)
        array.lookup(1)
        assert victim(array, 3) == 2

    def test_restricted_candidates(self):
        directory = filled_directory(4)
        directory.lookup(0)
        # 1 is global LRU, but restricted to {2, 3} it must pick 2.
        assert directory.lru_slot(range(4)) == 1
        assert directory.lru_slot([2, 3]) == 2

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=8, max_size=60))
    def test_victim_never_most_recent(self, accesses):
        array = filled_array(8)
        for way in accesses:
            array.lookup(way)
        assert victim(array, 8) != accesses[-1]


@pytest.mark.parametrize("name", ["lru"])
@settings(max_examples=25)
@given(data=st.data())
def test_property_victim_always_valid(name, data):
    """Any access history: victim stays in range / in candidates."""
    array = filled_array(4)
    directory = filled_directory(4)
    for way in data.draw(st.lists(st.integers(0, 3), max_size=30)):
        array.lookup(way)
        directory.lookup(way)
    assert 0 <= victim(array, 4) < 4
    candidates = data.draw(
        st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True)
    )
    assert directory.lru_slot(candidates) in candidates
