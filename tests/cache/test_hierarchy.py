"""Unit + integration tests for the private L1+L2 hierarchy."""

import pytest
from dataclasses import replace

from repro.cache.hierarchy import PrivateHierarchy
from repro.common.config import CacheConfig, DirectoryKind
from repro.common.errors import ConfigError, ProtocolError
from repro.common.mesi import MesiState
from repro.common.stats import StatGroup
from repro.sim.system import build_system
from repro.workloads.suite import build_workload
from tests.conftest import checked_simulator, tiny_config


def make_hierarchy(l1_sets=2, l1_ways=2, l2_sets=4, l2_ways=2):
    return PrivateHierarchy(
        core_id=0,
        l1_config=CacheConfig(sets=l1_sets, ways=l1_ways),
        l2_config=CacheConfig(sets=l2_sets, ways=l2_ways),
        stats=StatGroup("private"),
    )


class TestValidation:
    def test_l2_must_cover_l1(self):
        with pytest.raises(ConfigError):
            make_hierarchy(l1_sets=4, l1_ways=2, l2_sets=2, l2_ways=2)

    def test_block_sizes_must_match(self):
        with pytest.raises(ConfigError):
            PrivateHierarchy(
                0,
                CacheConfig(sets=2, ways=2, block_bytes=64),
                CacheConfig(sets=4, ways=2, block_bytes=128),
                StatGroup("p"),
            )


class TestFillAndAccess:
    def test_fill_lands_in_both_levels(self):
        h = make_hierarchy()
        h.fill(5, MesiState.EXCLUSIVE, version=1)
        block, level = h.access_block(5)
        assert level == "l1"
        assert block.state == MesiState.EXCLUSIVE
        h.check_internal_inclusion()

    def test_l2_promotion_after_l1_eviction(self):
        h = make_hierarchy(l1_sets=1, l1_ways=1, l2_sets=4, l2_ways=2)
        h.fill(0, MesiState.EXCLUSIVE, 0)
        h.fill(1, MesiState.EXCLUSIVE, 0)  # L1 victim 0 demoted to L2-only
        assert h.l1_occupancy() == 1
        block, level = h.access_block(0)
        assert level == "l2"
        assert block is not None
        assert h.stats.get("l2_promotions") == 1
        h.check_internal_inclusion()

    def test_miss_when_absent_everywhere(self):
        h = make_hierarchy()
        block, level = h.access_block(9)
        assert block is None and level == "miss"

    def test_fill_invalid_rejected(self):
        with pytest.raises(ProtocolError):
            make_hierarchy().fill(5, MesiState.INVALID, 0)


class TestDirtyDemotion:
    def test_dirty_l1_victim_folds_into_l2(self):
        h = make_hierarchy(l1_sets=1, l1_ways=1, l2_sets=4, l2_ways=2)
        h.fill(0, MesiState.MODIFIED, version=7)
        h.fill(1, MesiState.EXCLUSIVE, 0)  # demotes dirty 0
        l2_view = h.probe(0, touch=False)
        assert l2_view.dirty and l2_view.version == 7
        h.check_internal_inclusion()

    def test_write_version_visible_through_probe(self):
        h = make_hierarchy()
        h.fill(0, MesiState.EXCLUSIVE, version=1)
        block, _ = h.access_block(0)
        h.upgrade_to_modified(0)
        block.version = 42  # the controller writes the L1 copy
        assert h.probe(0, touch=False).version == 42  # probe syncs down


class TestCoherenceOps:
    def test_invalidate_clears_both_levels(self):
        h = make_hierarchy()
        h.fill(0, MesiState.MODIFIED, version=3)
        removed = h.invalidate(0)
        assert removed.dirty and removed.version == 3
        assert h.probe(0, touch=False) is None
        assert h.l1_occupancy() == 0

    def test_downgrade_hits_both_levels(self):
        h = make_hierarchy()
        h.fill(0, MesiState.MODIFIED, version=3)
        h.downgrade_to_shared(0)
        assert h.state_of(0) is MesiState.SHARED
        block, _ = h.access_block(0)
        assert block.state == MesiState.SHARED

    def test_upgrade_hits_both_levels(self):
        h = make_hierarchy(l1_sets=1, l1_ways=1, l2_sets=4, l2_ways=2)
        h.fill(0, MesiState.SHARED, 0)
        h.upgrade_to_modified(0)
        assert h.state_of(0) is MesiState.MODIFIED

    def test_upgrade_uncached_rejected(self):
        with pytest.raises(ProtocolError):
            make_hierarchy().upgrade_to_modified(0)


class TestVictims:
    def test_peek_victim_is_l2_victim_with_merged_dirty(self):
        h = make_hierarchy(l1_sets=1, l1_ways=1, l2_sets=1, l2_ways=2)
        h.fill(0, MesiState.MODIFIED, version=5)
        h.fill(1, MesiState.EXCLUSIVE, 0)
        victim = h.peek_fill_victim(2)
        assert victim is not None
        if victim.addr == 0:
            assert victim.dirty and victim.version == 5

    def test_occupancy_views(self):
        h = make_hierarchy(l1_sets=1, l1_ways=2, l2_sets=4, l2_ways=2)
        for addr in range(4):
            h.fill(addr, MesiState.EXCLUSIVE, 0)
        assert h.occupancy() == 4
        assert h.l1_occupancy() == 2


class TestEndToEnd:
    @pytest.mark.parametrize("kind", [DirectoryKind.SPARSE, DirectoryKind.STASH])
    def test_full_system_with_l2_invariants(self, kind):
        config = replace(
            tiny_config(kind, ratio=0.5, l1_sets=2, l1_ways=2),
            l2=CacheConfig(sets=4, ways=2),
        )
        system = build_system(config)
        trace = build_workload("mix", 4, 300, seed=5)
        checked_simulator(system, every=128).run(trace)
        for private in system.l1s:
            private.check_internal_inclusion()

    def test_directory_sized_by_l2(self):
        config = replace(
            tiny_config(ratio=1.0, l1_sets=2, l1_ways=2),
            l2=CacheConfig(sets=8, ways=2),
        )
        # R=1 against the tracked level: 4 cores x 16 L2 blocks.
        assert config.directory_entries == 64
        assert config.private_blocks_per_core == 16

    def test_l2_hits_counted_and_charged(self):
        config = replace(
            tiny_config(DirectoryKind.STASH, ratio=2.0, l1_sets=1, l1_ways=1),
            l2=CacheConfig(sets=4, ways=2),
        )
        system = build_system(config)
        system.access(0, 0, is_write=False)
        system.access(0, 1, is_write=False)   # L1 victim 0 -> L2 only
        latency = system.access(0, 0, is_write=False)  # L2 hit + promote
        timing = config.timing
        assert latency == timing.l1_hit + timing.l2_hit
        assert system.stats.child("protocol").get("l2_hits") == 1
        system.check_invariants()

    def test_describe_mentions_l2(self):
        config = replace(tiny_config(), l2=CacheConfig(sets=8, ways=2))
        assert "KiB" in config.describe()["L2 (per core)"]
        assert tiny_config().describe()["L2 (per core)"] == "none"
