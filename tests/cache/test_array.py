"""Unit + property tests for the generic set-associative array."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.array import CacheArray
from repro.common.config import CacheConfig
from repro.common.errors import ProtocolError
from repro.common.stats import StatGroup
from tests.conftest import LruModel


def make_array(sets=4, ways=2):
    return CacheArray(CacheConfig(sets=sets, ways=ways), StatGroup("array"))


class TestLookupAllocate:
    def test_miss_then_hit(self):
        array = make_array()
        assert array.lookup(10) is None
        array.allocate(10, state=1)
        block = array.lookup(10)
        assert block is not None
        assert block.addr == 10

    def test_allocate_returns_no_victim_when_room(self):
        array = make_array()
        _, evicted = array.allocate(10, state=1)
        assert evicted is None

    def test_double_allocate_rejected(self):
        array = make_array()
        array.allocate(10, state=1)
        with pytest.raises(ProtocolError):
            array.allocate(10, state=1)

    def test_contains_no_touch(self):
        array = make_array()
        array.allocate(10, state=1)
        assert array.contains(10)
        assert not array.contains(11)


class TestEviction:
    def test_conflict_evicts_lru(self):
        array = make_array(sets=1, ways=2)
        array.allocate(0, state=1)
        array.allocate(1, state=1)
        array.lookup(0)  # 1 becomes LRU
        _, evicted = array.allocate(2, state=1)
        assert evicted is not None
        assert evicted.addr == 1
        assert array.lookup(1) is None
        assert array.lookup(0) is not None

    def test_peek_matches_actual_victim(self):
        array = make_array(sets=1, ways=4)
        for addr in range(4):
            array.allocate(addr, state=1)
        array.lookup(0)
        peeked = array.peek_victim(99)
        _, evicted = array.allocate(99, state=1)
        assert peeked is evicted

    def test_peek_none_when_room(self):
        array = make_array(sets=1, ways=2)
        array.allocate(0, state=1)
        assert array.peek_victim(1) is None

    def test_peek_on_present_block_rejected(self):
        array = make_array()
        array.allocate(3, state=1)
        with pytest.raises(ProtocolError):
            array.peek_victim(3)

    def test_different_sets_do_not_conflict(self):
        array = make_array(sets=4, ways=1)
        for addr in range(4):  # each maps to its own set
            _, evicted = array.allocate(addr, state=1)
            assert evicted is None


class TestRemove:
    def test_remove_returns_block(self):
        array = make_array()
        array.allocate(5, state=2)
        removed = array.remove(5)
        assert removed.addr == 5
        assert array.lookup(5) is None

    def test_remove_absent_is_none(self):
        assert make_array().remove(5) is None

    def test_removed_way_reused(self):
        array = make_array(sets=1, ways=1)
        array.allocate(0, state=1)
        array.remove(0)
        _, evicted = array.allocate(1, state=1)
        assert evicted is None


class TestInspection:
    def test_occupancy_counts(self):
        array = make_array(sets=4, ways=2)
        assert array.occupancy() == 0
        array.allocate(0, state=1)
        array.allocate(1, state=1)
        assert array.occupancy() == 2
        array.remove(0)
        assert array.occupancy() == 1

    def test_iter_blocks_yields_all(self):
        array = make_array(sets=4, ways=2)
        for addr in (0, 1, 4, 5):
            array.allocate(addr, state=1)
        assert {b.addr for b in array.iter_blocks()} == {0, 1, 4, 5}

    def test_set_occupancy(self):
        array = make_array(sets=4, ways=2)
        array.allocate(0, state=1)
        array.allocate(4, state=1)  # same set as 0
        assert array.set_occupancy(0) == 2
        assert array.set_occupancy(1) == 0

    def test_stats_recorded(self):
        stats = StatGroup("array")
        array = CacheArray(CacheConfig(sets=1, ways=1), stats)
        array.allocate(0, state=1)
        array.allocate(1, state=1)
        array.remove(1)
        assert stats.get("fills") == 2
        assert stats.get("evictions") == 1
        assert stats.get("removals") == 1


@settings(max_examples=100)
@given(
    sets=st.sampled_from([1, 2, 4]),
    ways=st.integers(1, 4),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["alloc", "alloc", "remove", "lookup", "peek", "contains"]),
            st.integers(0, 11),
        ),
        min_size=40,
        max_size=200,
    ),
)
def test_property_model_equivalence(sets, ways, ops):
    """Every victim, hit, occupancy and iteration order matches exact LRU.

    ``lookup(touch=False)`` and ``contains`` must leave the order alone;
    ``lookup`` makes the line the set's most recently used.
    """
    array = make_array(sets=sets, ways=ways)
    model = LruModel(sets, ways)
    for op, addr in ops:
        if op == "alloc":
            if addr in model:
                with pytest.raises(ProtocolError):
                    array.peek_victim(addr)
                continue
            peeked = array.peek_victim(addr)
            expected = model.victim(addr)
            model.fill(addr, expected)
            block, evicted = array.allocate(addr, state=1)
            assert block.addr == addr
            assert (None if evicted is None else evicted.addr) == expected
            assert peeked is evicted
        elif op == "remove":
            removed = array.remove(addr)
            assert (removed is not None) == (addr in model)
            if removed is not None:
                assert removed.addr == addr
                model.remove(addr)
        elif op == "lookup":
            block = array.lookup(addr)
            assert (block is not None) == (addr in model)
            if block is not None:
                model.touch(addr)
        elif op == "peek":
            block = array.lookup(addr, touch=False)
            assert (block is not None) == (addr in model)
        else:
            assert array.contains(addr) == (addr in model)
        assert [b.addr for b in array.iter_blocks()] == model.set_major()
    assert array.occupancy() == len(model.set_major())
    for s in range(sets):
        assert array.set_occupancy(s) == len(model.order[s])
