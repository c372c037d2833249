"""Unit + property tests for sharer-set representations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import DirectoryConfig, SharerFormat
from repro.common.errors import ConfigError
from repro.directory.sharers import (
    CoarseVector,
    FullBitVector,
    LimitedPointer,
    make_sharer_rep,
    sharer_storage_bits,
)

N = 16


class TestFullBitVector:
    def test_add_remove_exact(self):
        rep = FullBitVector(N)
        rep.add(3)
        rep.add(7)
        assert sorted(rep.targets()) == [3, 7]
        rep.remove(3)
        assert rep.targets() == [7]

    def test_clear(self):
        rep = FullBitVector(N)
        rep.add(1)
        rep.clear()
        assert rep.targets() == []

    def test_add_idempotent(self):
        rep = FullBitVector(N)
        rep.add(5)
        rep.add(5)
        assert rep.targets() == [5]

    def test_storage_bits(self):
        assert FullBitVector.storage_bits(16) == 16
        assert FullBitVector.storage_bits(64) == 64


class TestCoarseVector:
    def test_targets_cover_group(self):
        rep = CoarseVector(N, group=4)
        rep.add(5)
        assert sorted(rep.targets()) == [4, 5, 6, 7]

    def test_remove_cannot_clear(self):
        rep = CoarseVector(N, group=4)
        rep.add(5)
        rep.remove(5)
        assert 5 in rep.targets()  # imprecision is the point

    def test_clear_resets(self):
        rep = CoarseVector(N, group=4)
        rep.add(5)
        rep.clear()
        assert rep.targets() == []

    def test_partial_last_group(self):
        rep = CoarseVector(10, group=4)
        rep.add(9)
        assert sorted(rep.targets()) == [8, 9]

    def test_storage_bits(self):
        assert CoarseVector.storage_bits(16, group=4) == 4
        assert CoarseVector.storage_bits(10, group=4) == 3

    def test_rejects_zero_group(self):
        with pytest.raises(ConfigError):
            CoarseVector(N, group=0)


class TestLimitedPointer:
    def test_exact_until_overflow(self):
        rep = LimitedPointer(N, pointers=2)
        rep.add(3)
        rep.add(9)
        assert sorted(rep.targets()) == [3, 9]

    def test_overflow_broadcasts(self):
        rep = LimitedPointer(N, pointers=2)
        for core in (1, 2, 3):
            rep.add(core)
        assert rep.targets() == list(range(N))
        assert rep.overflowed

    def test_remove_before_overflow(self):
        rep = LimitedPointer(N, pointers=4)
        rep.add(3)
        rep.add(9)
        rep.remove(3)
        assert rep.targets() == [9]

    def test_clear_resets_overflow(self):
        rep = LimitedPointer(N, pointers=1)
        rep.add(1)
        rep.add(2)
        rep.clear()
        assert not rep.overflowed
        assert rep.targets() == []

    def test_duplicate_add_does_not_overflow(self):
        rep = LimitedPointer(N, pointers=2)
        rep.add(3)
        rep.add(3)
        rep.add(9)
        assert not rep.overflowed

    def test_storage_bits(self):
        # 4 pointers x 4 bits + overflow bit.
        assert LimitedPointer.storage_bits(16, pointers=4) == 17


class TestFactory:
    @pytest.mark.parametrize("fmt", list(SharerFormat))
    def test_make_each(self, fmt):
        rep = make_sharer_rep(DirectoryConfig(sharer_format=fmt), N)
        rep.add(0)
        assert 0 in rep.targets()

    @pytest.mark.parametrize("fmt", list(SharerFormat))
    def test_storage_bits_positive(self, fmt):
        assert sharer_storage_bits(DirectoryConfig(sharer_format=fmt), N) > 0

    def test_coarse_storage_smaller_than_full_at_scale(self):
        full = sharer_storage_bits(
            DirectoryConfig(sharer_format=SharerFormat.FULL_BIT_VECTOR), 64
        )
        coarse = sharer_storage_bits(
            DirectoryConfig(sharer_format=SharerFormat.COARSE_VECTOR, coarse_group=8), 64
        )
        limited = sharer_storage_bits(
            DirectoryConfig(sharer_format=SharerFormat.LIMITED_POINTER, limited_pointers=4),
            64,
        )
        assert coarse < full
        assert limited < full


@pytest.mark.parametrize("fmt", list(SharerFormat))
@settings(max_examples=40)
@given(data=st.data())
def test_property_targets_superset_of_live_holders(fmt, data):
    """Invariant the protocol relies on: after any add/remove history, the
    cores added-and-not-removed are always a subset of targets()."""
    rep = make_sharer_rep(
        DirectoryConfig(sharer_format=fmt, coarse_group=4, limited_pointers=2), N
    )
    live = set()
    for add, core in data.draw(
        st.lists(st.tuples(st.booleans(), st.integers(0, N - 1)), max_size=40)
    ):
        if add:
            rep.add(core)
            live.add(core)
        else:
            rep.remove(core)
            live.discard(core)
    assert live.issubset(set(rep.targets()))


class TestLimitedPointerOverflowSemantics:
    """Pinned contract: degrade-to-broadcast is one-way until clear().

    A remove() after overflow must neither resurrect precision (the
    forgotten pointers are unrecoverable) nor underflow anything; only
    clear() — driven by the entry's exact sharer counter reaching zero —
    restores the precise encoding.
    """

    def overflowed(self):
        rep = LimitedPointer(N, pointers=2)
        for core in (1, 2, 3):
            rep.add(core)
        assert rep.overflowed
        return rep

    def test_remove_after_overflow_keeps_broadcast(self):
        rep = self.overflowed()
        rep.remove(1)
        assert rep.overflowed
        assert rep.targets() == list(range(N))

    def test_remove_every_core_cannot_underflow(self):
        rep = self.overflowed()
        for _ in range(3):
            for core in range(N):
                rep.remove(core)
        assert rep.overflowed
        assert rep.ids == []
        assert rep.targets() == list(range(N))

    def test_add_after_overflow_keeps_pointer_list_empty(self):
        rep = self.overflowed()
        rep.add(7)
        assert rep.ids == []
        assert rep.targets() == list(range(N))

    def test_clear_restores_precision(self):
        rep = self.overflowed()
        rep.clear()
        rep.add(5)
        assert not rep.overflowed
        assert rep.targets() == [5]

    @settings(max_examples=60)
    @given(
        removals=st.lists(st.integers(0, N - 1), max_size=30),
        adds=st.lists(st.integers(0, N - 1), max_size=30),
    )
    def test_property_overflow_is_sticky(self, removals, adds):
        rep = LimitedPointer(N, pointers=2)
        for core in (1, 2, 3):
            rep.add(core)
        for core in removals:
            rep.remove(core)
        for core in adds:
            rep.add(core)
        assert rep.overflowed
        assert rep.targets() == list(range(N))


class TestCoarseVectorNonMultipleGroup:
    """Pinned contract: a short tail group never names phantom cores and
    storage always rounds up to whole group bits."""

    def test_tail_group_targets_are_clamped(self):
        rep = CoarseVector(6, group=4)
        rep.add(5)  # tail group {4, 5}
        assert sorted(rep.targets()) == [4, 5]

    def test_full_plus_tail_group(self):
        rep = CoarseVector(6, group=4)
        rep.add(0)
        rep.add(4)
        assert sorted(rep.targets()) == [0, 1, 2, 3, 4, 5]

    def test_single_core_tail(self):
        rep = CoarseVector(9, group=4)
        rep.add(8)
        assert rep.targets() == [8]

    @settings(max_examples=60)
    @given(
        num_cores=st.integers(1, 17),
        group=st.integers(1, 6),
        cores=st.data(),
    )
    def test_property_targets_never_exceed_num_cores(self, num_cores, group, cores):
        rep = CoarseVector(num_cores, group=group)
        for core in cores.draw(
            st.lists(st.integers(0, num_cores - 1), max_size=20)
        ):
            rep.add(core)
        assert all(0 <= t < num_cores for t in rep.targets())

    @pytest.mark.parametrize(
        "num_cores,group,bits",
        [(6, 4, 2), (5, 4, 2), (4, 4, 1), (9, 2, 5), (1, 4, 1), (17, 4, 5)],
    )
    def test_storage_bits_round_up(self, num_cores, group, bits):
        assert CoarseVector.storage_bits(num_cores, group=group) == bits
