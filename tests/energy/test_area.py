"""Unit tests for the storage/area model (T2)."""

from repro.analysis.experiments import make_config
from repro.common.config import DirectoryConfig, DirectoryKind, SharerFormat
from repro.energy.area import entry_bits, storage_of


class TestEntryBits:
    def test_full_bit_vector_entry(self):
        cfg = DirectoryConfig(kind=DirectoryKind.SPARSE, ways=8)
        # 42-bit block addr, 512 sets -> 33 tag bits; 2 state + 1 valid +
        # 4 owner + 3 LRU + 16 sharers = 59.
        assert entry_bits(cfg, num_cores=16, sets=512, block_bytes=64) == 59

    def test_cuckoo_stores_full_address(self):
        sparse = DirectoryConfig(kind=DirectoryKind.SPARSE, ways=8)
        cuckoo = DirectoryConfig(kind=DirectoryKind.CUCKOO, ways=8)
        assert entry_bits(cuckoo, 16, 512, 64) > entry_bits(sparse, 16, 512, 64)

    def test_sharer_format_changes_bits(self):
        full = DirectoryConfig(sharer_format=SharerFormat.FULL_BIT_VECTOR)
        coarse = DirectoryConfig(sharer_format=SharerFormat.COARSE_VECTOR)
        assert entry_bits(coarse, 64, 512, 64) < entry_bits(full, 64, 512, 64)


class TestStorage:
    def test_stash_includes_llc_bit_overhead(self):
        stash = storage_of(make_config(DirectoryKind.STASH, 1.0))
        sparse = storage_of(make_config(DirectoryKind.SPARSE, 1.0))
        assert stash.stash_bit_overhead == 1024 * 16  # one bit per LLC line
        assert sparse.stash_bit_overhead == 0

    def test_eighth_stash_much_smaller_than_full_sparse(self):
        """The abstract's storage claim: stash@1/8 (incl. stash bits) is a
        small fraction of the 1x conventional directory."""
        stash = storage_of(make_config(DirectoryKind.STASH, 0.125))
        sparse = storage_of(make_config(DirectoryKind.SPARSE, 1.0))
        assert stash.total_bits / sparse.total_bits < 0.30

    def test_entries_scale_with_ratio(self):
        full = storage_of(make_config(DirectoryKind.SPARSE, 1.0))
        eighth = storage_of(make_config(DirectoryKind.SPARSE, 0.125))
        assert eighth.entries == full.entries // 8

    def test_ideal_reported_as_duplicate_tag(self):
        est = storage_of(make_config(DirectoryKind.IDEAL, 1.0))
        assert est.entries == 16 * 256

    def test_total_kib_positive(self):
        assert storage_of(make_config()).total_kib > 0


class TestExtensionOverheads:
    def test_adaptive_stash_counts_stash_bits(self):
        est = storage_of(make_config(DirectoryKind.ADAPTIVE_STASH, 1.0))
        assert est.stash_bit_overhead == 1024 * 16

    def test_filter_bits_included(self):
        base = make_config(DirectoryKind.STASH, 0.125)
        with_filter = base.with_directory(discovery_filter_slots=64)
        extra = storage_of(with_filter).total_bits - storage_of(base).total_bits
        assert extra == 16 * 64 * 4  # cores x slots x counter bits
