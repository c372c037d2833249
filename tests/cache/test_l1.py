"""Unit tests for the private L1 cache wrapper."""

import pytest

from repro.cache.l1 import L1Cache
from repro.common.config import CacheConfig
from repro.common.errors import ProtocolError
from repro.common.mesi import MesiState
from repro.common.stats import StatGroup


def make_l1(sets=2, ways=2):
    return L1Cache(
        core_id=0,
        config=CacheConfig(sets=sets, ways=ways),
        stats=StatGroup("l1"),
    )


class TestFillProbe:
    def test_fill_then_probe(self):
        l1 = make_l1()
        l1.fill(7, MesiState.EXCLUSIVE, version=3)
        block = l1.probe(7)
        assert block.state == MesiState.EXCLUSIVE
        assert block.version == 3
        assert not block.dirty

    def test_fill_modified_sets_dirty(self):
        l1 = make_l1()
        block = l1.fill(7, MesiState.MODIFIED, version=1)
        assert block.dirty

    def test_fill_invalid_rejected(self):
        with pytest.raises(ProtocolError):
            make_l1().fill(7, MesiState.INVALID, version=0)

    def test_state_of_absent_is_invalid(self):
        assert make_l1().state_of(99) is MesiState.INVALID

    def test_state_of_present(self):
        l1 = make_l1()
        l1.fill(7, MesiState.SHARED, version=0)
        assert l1.state_of(7) is MesiState.SHARED


class TestTransitions:
    def test_upgrade_to_modified(self):
        l1 = make_l1()
        l1.fill(7, MesiState.SHARED, version=0)
        block = l1.upgrade_to_modified(7)
        assert block.state == MesiState.MODIFIED
        assert block.dirty

    def test_upgrade_uncached_rejected(self):
        with pytest.raises(ProtocolError):
            make_l1().upgrade_to_modified(7)

    def test_downgrade_to_shared_clears_dirty(self):
        l1 = make_l1()
        l1.fill(7, MesiState.MODIFIED, version=2)
        block = l1.downgrade_to_shared(7)
        assert block.state == MesiState.SHARED
        assert not block.dirty

    def test_downgrade_uncached_rejected(self):
        with pytest.raises(ProtocolError):
            make_l1().downgrade_to_shared(7)

    def test_invalidate_returns_block(self):
        l1 = make_l1()
        l1.fill(7, MesiState.MODIFIED, version=4)
        removed = l1.invalidate(7)
        assert removed.dirty and removed.version == 4
        assert l1.probe(7) is None

    def test_invalidate_absent_returns_none(self):
        assert make_l1().invalidate(7) is None


class TestEvictionMechanics:
    def test_peek_fill_victim_when_set_full(self):
        l1 = make_l1(sets=1, ways=2)
        l1.fill(0, MesiState.EXCLUSIVE, 0)
        l1.fill(1, MesiState.EXCLUSIVE, 0)
        victim = l1.peek_fill_victim(2)
        assert victim.addr in (0, 1)

    def test_occupancy_and_iter(self):
        l1 = make_l1()
        l1.fill(0, MesiState.SHARED, 0)
        l1.fill(1, MesiState.SHARED, 0)
        assert l1.occupancy() == 2
        assert {b.addr for b in l1.iter_blocks()} == {0, 1}
