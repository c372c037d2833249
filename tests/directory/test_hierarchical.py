"""Unit + integration tests for the SCD-lite hierarchical directory."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import DirectoryConfig, DirectoryKind
from repro.common.errors import ConfigError, DirectoryError
from repro.common.rng import DeterministicRng
from repro.common.stats import StatGroup
from repro.directory.base import EvictionAction
from repro.directory.hierarchical import ScdDirectory, scd_lines
from repro.sim.system import build_system
from tests.conftest import tiny_config


def make_scd(lines=8, num_cores=16, pointers=2, leaf_size=4):
    return ScdDirectory(
        DirectoryConfig(kind=DirectoryKind.SCD),
        num_cores=num_cores,
        entries=lines,
        rng=DeterministicRng(1),
        stats=StatGroup("dir"),
        pointers=pointers,
        leaf_size=leaf_size,
    )


class TestLineModel:
    def test_few_sharers_single_line(self):
        d = make_scd()
        assert d.lines_for({3}) == 1
        assert d.lines_for({3, 9}) == 1

    def test_many_sharers_root_plus_leaves(self):
        d = make_scd(pointers=2, leaf_size=4)
        # Cores 0, 1, 5 span groups {0, 1}: root + 2 leaves.
        assert d.lines_for({0, 1, 5}) == 3

    def test_all_cores(self):
        d = make_scd(pointers=2, leaf_size=4, num_cores=16)
        assert d.lines_for(set(range(16))) == 1 + 4

    @given(
        st.sets(st.integers(0, 63)),
        st.integers(1, 4),
        st.sampled_from([1, 3, 4, 8]),
    )
    def test_mask_rule_matches_set_rule(self, cores, pointers, leaf_size):
        """The bitmask rule both engines use equals root + touched leaves."""
        mask = 0
        for core in cores:
            mask |= 1 << core
        if len(cores) <= pointers:
            expected = 1
        else:
            expected = 1 + len({core // leaf_size for core in cores})
        assert scd_lines(mask, pointers, leaf_size) == expected

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            make_scd(pointers=0)
        with pytest.raises(ConfigError):
            make_scd(leaf_size=0)


class TestLineAccounting:
    def test_allocation_charges_one_line(self):
        d = make_scd()
        d.allocate(1)
        d.allocate(2)
        assert d.total_lines() == 2

    def test_sharer_growth_charges_lines(self):
        d = make_scd(pointers=2, leaf_size=4)
        entry = d.allocate(1).entry
        entry.add_sharer(0)
        entry.add_sharer(1)
        assert d.total_lines() == 1
        entry.add_sharer(5)  # crosses the pointer limit: root + 2 leaves
        assert d.total_lines() == 3

    def test_sharer_shrink_releases_lines(self):
        d = make_scd(pointers=2, leaf_size=4)
        entry = d.allocate(1).entry
        for core in (0, 1, 5):
            entry.add_sharer(core)
        entry.remove_core(5)
        assert d.total_lines() == 1

    def test_grant_exclusive_collapses_to_one_line(self):
        d = make_scd(pointers=2, leaf_size=4)
        entry = d.allocate(1).entry
        for core in (0, 1, 5, 9):
            entry.add_sharer(core)
        entry.grant_exclusive(0)
        assert d.total_lines() == 1

    def test_deallocate_releases(self):
        d = make_scd()
        entry = d.allocate(1).entry
        for core in (0, 1, 5):
            entry.add_sharer(core)
        d.deallocate(1)
        assert d.total_lines() == 0
        assert d.occupancy() == 0


class TestEviction:
    def test_no_eviction_under_budget(self):
        d = make_scd(lines=8)
        for addr in range(8):
            assert d.allocate(addr).eviction is None

    def test_lru_block_evicted_when_full(self):
        d = make_scd(lines=4)
        for addr in range(4):
            d.allocate(addr)
        d.lookup(0)  # 1 becomes LRU
        result = d.allocate(99)
        assert result.eviction is not None
        assert result.eviction.entry.addr == 1
        assert result.eviction.action is EvictionAction.INVALIDATE

    def test_multi_line_entries_fill_budget_faster(self):
        d = make_scd(lines=6, pointers=2, leaf_size=4)
        wide = d.allocate(1).entry
        for core in (0, 1, 4, 8, 12):  # root + 4 leaves = 5 lines
            wide.add_sharer(core)
        assert d.total_lines() == 5
        d.allocate(2)  # 6 lines: at budget
        result = d.allocate(3)  # over: evicts LRU (the wide block)
        assert result.eviction.entry.addr == 1
        assert d.total_lines() <= 6

    def test_double_allocate_rejected(self):
        d = make_scd()
        d.allocate(1)
        with pytest.raises(DirectoryError):
            d.allocate(1)

    def test_utilization(self):
        d = make_scd(lines=8)
        d.allocate(1)
        d.allocate(2)
        assert d.utilization() == 0.25


class TestEndToEnd:
    def test_invariants_hold(self):
        system = build_system(tiny_config(DirectoryKind.SCD, ratio=0.5))
        for i in range(400):
            system.access(i % 4, (i * 13) % 48, is_write=i % 4 == 0)
        system.check_invariants()

    def test_no_set_conflicts_at_full_coverage(self):
        """SCD's selling point: at R=1 with single-line entries, there are
        essentially no conflict evictions (unlike set-associative sparse)."""
        from repro.analysis.experiments import clear_cache, make_config, simulate

        clear_cache()
        scd = simulate(
            "blackscholes-like", make_config(DirectoryKind.SCD, 1.0), ops_per_core=800
        )
        sparse = simulate(
            "blackscholes-like", make_config(DirectoryKind.SPARSE, 1.0), ops_per_core=800
        )
        assert scd.dir_induced_invalidations <= sparse.dir_induced_invalidations
        clear_cache()
