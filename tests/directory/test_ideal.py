"""Unit tests for the ideal (unbounded) directory."""

import pytest

from repro.common.config import DirectoryConfig, DirectoryKind
from repro.common.errors import DirectoryError
from repro.common.stats import StatGroup
from repro.directory.ideal import IdealDirectory


def make_ideal(num_cores=4):
    return IdealDirectory(
        DirectoryConfig(kind=DirectoryKind.IDEAL), num_cores, StatGroup("dir")
    )


class TestIdeal:
    def test_never_evicts(self):
        d = make_ideal()
        for addr in range(10_000):
            assert d.allocate(addr).eviction is None
        assert d.occupancy() == 10_000

    def test_lookup(self):
        d = make_ideal()
        assert d.lookup(3) is None
        d.allocate(3)
        assert d.lookup(3).addr == 3

    def test_double_allocate_rejected(self):
        d = make_ideal()
        d.allocate(3)
        with pytest.raises(DirectoryError):
            d.allocate(3)

    def test_deallocate(self):
        d = make_ideal()
        d.allocate(3)
        d.deallocate(3)
        assert d.lookup(3, touch=False) is None
        d.deallocate(3)  # idempotent

    def test_capacity_reported_unbounded(self):
        assert make_ideal().capacity == 0

    def test_iter_entries_sorted(self):
        d = make_ideal()
        for addr in (5, 1, 3):
            d.allocate(addr)
        assert [e.addr for e in d.iter_entries()] == [1, 3, 5]

    def test_untouched_lookup_not_counted(self):
        d = make_ideal()
        d.lookup(3, touch=False)
        assert d.stats.get("misses") == 0


class TestInLlcKind:
    """The in-LLC embedded directory: conflict-free, so it simulates as
    ideal; only its storage, T2's ``in_llc`` row, is its own."""

    def test_storage_counts_llc_lines_without_tags(self):
        from repro.analysis.experiments import make_config
        from repro.energy.area import embedded_storage, storage_of

        sparse_config = make_config(DirectoryKind.SPARSE, 1.0)
        est = embedded_storage(sparse_config)
        assert est.entries == 1024 * 16          # one per LLC line
        assert est.stash_bit_overhead == 0
        sparse = storage_of(sparse_config)
        assert est.bits_per_entry < sparse.bits_per_entry  # no tag bits
        assert est.total_kib > sparse.total_kib  # but 4x the entries
