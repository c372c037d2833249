"""Unit + property tests for the cuckoo directory baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.addr import stride_hash
from repro.common.config import DirectoryConfig, DirectoryKind
from repro.common.errors import ConfigError, DirectoryError
from repro.common.rng import DeterministicRng
from repro.common.stats import StatGroup
from repro.directory.base import EvictionAction
from repro.directory.cuckoo import CuckooDirectory, cuckoo_slots


def make_cuckoo(entries=16, d=4, num_cores=4, max_path=8, seed=1):
    return CuckooDirectory(
        DirectoryConfig(kind=DirectoryKind.CUCKOO, ways=d),
        num_cores=num_cores,
        entries=entries,
        rng=DeterministicRng(seed),
        stats=StatGroup("dir"),
        max_path=max_path,
    )


class TestBasics:
    def test_allocate_lookup(self):
        d = make_cuckoo()
        d.allocate(10)
        assert d.lookup(10).addr == 10

    def test_double_allocate_rejected(self):
        d = make_cuckoo()
        d.allocate(10)
        with pytest.raises(DirectoryError):
            d.allocate(10)

    def test_deallocate(self):
        d = make_cuckoo()
        d.allocate(10)
        d.deallocate(10)
        assert d.lookup(10, touch=False) is None
        assert d.occupancy() == 0

    def test_entries_must_divide_by_ways(self):
        with pytest.raises(ConfigError):
            make_cuckoo(entries=10, d=4)

    def test_rejects_bad_max_path(self):
        with pytest.raises(ConfigError):
            make_cuckoo(max_path=0)


class TestRelocation:
    def test_fills_past_set_associative_conflicts(self):
        """Cuckoo should place far more entries than a same-size 1-way set
        could before its first eviction."""
        d = make_cuckoo(entries=64, d=4)
        evictions = 0
        for addr in range(48):  # 75% load
            result = d.allocate(addr)
            evictions += result.eviction is not None
        # At 75% load a 4-ary cuckoo should almost never evict.
        assert evictions <= 2
        assert d.occupancy() >= 46

    def test_eviction_when_full(self):
        d = make_cuckoo(entries=8, d=2)
        evictions = [d.allocate(addr).eviction for addr in range(20)]
        assert any(e is not None for e in evictions)
        for e in evictions:
            if e is not None:
                assert e.action is EvictionAction.INVALIDATE

    def test_new_entry_always_resident_after_allocate(self):
        """Regression: displacement chains must never evict the entry being
        inserted."""
        d = make_cuckoo(entries=8, d=2, max_path=3)
        for addr in range(200):
            d.allocate(addr)
            assert d.lookup(addr, touch=False) is not None

    def test_occupancy_never_exceeds_capacity(self):
        d = make_cuckoo(entries=8, d=2)
        for addr in range(100):
            d.allocate(addr)
        assert d.occupancy() <= 8

    def test_relocations_counted(self):
        d = make_cuckoo(entries=8, d=2)
        for addr in range(30):
            d.allocate(addr)
        assert d.stats.get("relocations") > 0


@settings(max_examples=30)
@given(
    seed=st.integers(0, 1000),
    addrs=st.lists(st.integers(0, 500), min_size=1, max_size=120, unique=True),
)
def test_property_allocate_then_always_findable(seed, addrs):
    """After any unique-address insertion sequence: every entry the directory
    claims to hold is findable, the new entry is always resident, and the
    live set is insertions minus evictions."""
    d = make_cuckoo(entries=16, d=4, seed=seed)
    live = set()
    for addr in addrs:
        result = d.allocate(addr)
        live.add(addr)
        if result.eviction is not None:
            live.discard(result.eviction.entry.addr)
        assert d.lookup(addr, touch=False) is not None
    assert {e.addr for e in d.iter_entries()} == live
    for addr in live:
        assert d.lookup(addr, touch=False) is not None


@settings(max_examples=500)
@given(
    addr=st.integers(-(2**130), 2**130),
    ways=st.integers(1, 16),
    slots_per_way=st.integers(1, 5000),
)
def test_property_cuckoo_slots_match_stride_hash(addr, ways, slots_per_way):
    """The one-pass lane hash is way-for-way ``stride_hash``.

    Both engines place blocks with ``cuckoo_slots``, so a wrong lane
    would pass every interpreter-against-vector comparison; only its
    definition can catch it.
    """
    assert cuckoo_slots(addr, ways, slots_per_way) == tuple(
        i * slots_per_way + stride_hash(addr, i + 1) % slots_per_way
        for i in range(ways)
    )
