"""Unit tests for the shared LLC, especially the stash bit."""

import pytest

from repro.cache.llc import SharedLLC
from repro.common.config import CacheConfig
from repro.common.errors import ProtocolError
from repro.common.stats import StatGroup


def make_llc(sets=4, ways=2, banks=4):
    return SharedLLC(
        CacheConfig(sets=sets, ways=ways),
        num_banks=banks,
        stats=StatGroup("llc"),
    )


class TestBasics:
    def test_fill_probe(self):
        llc = make_llc()
        llc.fill(10, version=2)
        block = llc.probe(10)
        assert block.version == 2 and not block.dirty

    def test_fill_dirty(self):
        llc = make_llc()
        assert llc.fill(10, version=2, dirty=True).dirty

    def test_bank_interleaving(self):
        llc = make_llc(banks=4)
        assert [llc.bank_of(b) for b in range(4)] == [0, 1, 2, 3]

    def test_invalidate(self):
        llc = make_llc()
        llc.fill(10, version=0)
        removed = llc.invalidate(10)
        assert removed.addr == 10
        assert not llc.contains(10)


class TestStashBit:
    def test_set_and_read(self):
        llc = make_llc()
        llc.fill(10, version=0)
        assert not llc.stash_bit(10)
        llc.set_stash_bit(10)
        assert llc.stash_bit(10)

    def test_set_on_non_resident_rejected(self):
        with pytest.raises(ProtocolError):
            make_llc().set_stash_bit(10)

    def test_clear(self):
        llc = make_llc()
        llc.fill(10, version=0)
        llc.set_stash_bit(10)
        llc.clear_stash_bit(10)
        assert not llc.stash_bit(10)

    def test_clear_absent_is_noop(self):
        make_llc().clear_stash_bit(10)  # must not raise

    def test_stash_bit_of_absent_line_is_false(self):
        assert not make_llc().stash_bit(10)

    def test_set_idempotent_stats(self):
        llc = make_llc()
        llc.fill(10, version=0)
        llc.set_stash_bit(10)
        llc.set_stash_bit(10)
        assert llc.stats.get("stash_bits_set") == 1

    def test_stash_bit_count(self):
        llc = make_llc()
        llc.fill(1, version=0)
        llc.fill(2, version=0)
        llc.set_stash_bit(1)
        assert llc.stash_bit_count() == 1


class TestWriteback:
    def test_writeback_marks_dirty_and_bumps_version(self):
        llc = make_llc()
        llc.fill(10, version=1)
        block = llc.write_back(10, version=5)
        assert block.dirty and block.version == 5

    def test_writeback_never_regresses_version(self):
        llc = make_llc()
        llc.fill(10, version=9)
        assert llc.write_back(10, version=5).version == 9

    def test_writeback_to_absent_violates_inclusion(self):
        with pytest.raises(ProtocolError):
            make_llc().write_back(10, version=1)

    def test_occupancy(self):
        llc = make_llc()
        llc.fill(1, version=0)
        llc.fill(2, version=0)
        assert llc.occupancy() == 2
