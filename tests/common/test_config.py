"""Unit tests for configuration validation and derived sizing."""

import pytest

from repro.common.config import (
    CacheConfig,
    DirectoryConfig,
    DirectoryKind,
    EnergyConfig,
    NoCConfig,
    SharerFormat,
    SystemConfig,
    TimingConfig,
)
from repro.common.errors import ConfigError


class TestCacheConfig:
    def test_derived_sizes(self):
        cfg = CacheConfig(sets=64, ways=4, block_bytes=64)
        assert cfg.blocks == 256
        assert cfg.capacity_bytes == 16 * 1024

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheConfig(sets=48, ways=4)

    def test_rejects_zero_ways(self):
        with pytest.raises(ConfigError):
            CacheConfig(sets=64, ways=0)

    def test_rejects_odd_block_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(sets=64, ways=4, block_bytes=96)


class TestDirectoryConfig:
    def test_entries_from_ratio(self):
        cfg = DirectoryConfig(coverage_ratio=1.0, ways=8)
        # 16 cores x 256 L1 blocks = 4096 entries -> 512 sets x 8 ways.
        assert cfg.entries_for(16, 256) == 4096

    def test_eighth_provisioning(self):
        cfg = DirectoryConfig(coverage_ratio=0.125, ways=8)
        assert cfg.entries_for(16, 256) == 512

    def test_entries_rounded_to_power_of_two_sets(self):
        cfg = DirectoryConfig(coverage_ratio=1.0, ways=8)
        entries = cfg.entries_for(16, 192)  # 3072 raw -> 384 sets -> 256 sets
        assert entries == 256 * 8

    def test_entries_override(self):
        cfg = DirectoryConfig(entries_override=128, ways=4)
        assert cfg.entries_for(16, 256) == 128

    def test_minimum_one_set(self):
        cfg = DirectoryConfig(coverage_ratio=0.0001, ways=4)
        assert cfg.entries_for(2, 8) == 4

    def test_rejects_bad_ratio(self):
        with pytest.raises(ConfigError):
            DirectoryConfig(coverage_ratio=0)

    def test_rejects_bad_override(self):
        with pytest.raises(ConfigError):
            DirectoryConfig(entries_override=0)


class TestNoCConfig:
    def test_nodes(self):
        assert NoCConfig(mesh_width=4, mesh_height=4).nodes == 16

    def test_rejects_zero_dim(self):
        with pytest.raises(ConfigError):
            NoCConfig(mesh_width=0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            NoCConfig(hop_cycles=-1)

    @pytest.mark.parametrize("name", ["hop_cycles", "router_cycles"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True])
    def test_rejects_non_int_latency(self, name, value):
        with pytest.raises(ConfigError, match="int cycle count"):
            NoCConfig(**{name: value})


class TestTimingConfig:
    def test_defaults_valid(self):
        TimingConfig()

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            TimingConfig(memory_latency=-5)
        with pytest.raises(ConfigError):
            TimingConfig(core_fixed_cpi=-1)

    @pytest.mark.parametrize(
        "name",
        ["l1_hit", "l2_hit", "llc_access", "directory_access",
         "memory_latency", "core_fixed_cpi", "home_occupancy"],
    )
    @pytest.mark.parametrize("value", [120.5, 120.0, False])
    def test_rejects_non_int_cycles(self, name, value):
        # A fractional latency made the engines' cycle counts differ by
        # the fraction; a bool is an int to Python but no cycle count.
        with pytest.raises(ConfigError, match="int cycle count"):
            TimingConfig(**{name: value})


class TestEnergyConfig:
    def test_defaults_valid(self):
        EnergyConfig()

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            EnergyConfig(noc_hop_pj=-1.0)


class TestSystemConfig:
    def test_defaults_build(self):
        cfg = SystemConfig()
        assert cfg.num_cores == 16
        assert cfg.directory_entries == 4096  # R=1, 16 x 256

    def test_mesh_must_cover_cores(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=32)  # default 4x4 mesh too small

    def test_block_sizes_must_match(self):
        with pytest.raises(ConfigError):
            SystemConfig(
                l1=CacheConfig(sets=64, ways=4, block_bytes=64),
                llc=CacheConfig(sets=1024, ways=16, block_bytes=128),
            )

    def test_small_llc_allowed(self):
        # Inclusion is enforced dynamically (back-invalidation), so an LLC
        # smaller than the aggregate L1s is legal, if unrealistic.
        cfg = SystemConfig(llc=CacheConfig(sets=64, ways=4))
        assert cfg.llc.blocks < cfg.num_cores * cfg.l1.blocks

    def test_with_directory_sweeps_ratio(self):
        cfg = SystemConfig()
        smaller = cfg.with_directory(coverage_ratio=0.125)
        assert smaller.directory_entries == 512
        assert cfg.directory_entries == 4096  # original untouched

    def test_with_directory_changes_kind(self):
        cfg = SystemConfig().with_directory(kind=DirectoryKind.CUCKOO)
        assert cfg.directory.kind is DirectoryKind.CUCKOO

    def test_describe_mentions_key_facts(self):
        desc = SystemConfig().describe()
        assert desc["cores"] == "16"
        assert "stash" in desc["directory"]
        assert "4x4 mesh" in desc["NoC"]

    def test_sharer_format_flows_through(self):
        cfg = SystemConfig(
            directory=DirectoryConfig(sharer_format=SharerFormat.COARSE_VECTOR)
        )
        assert "coarse" in cfg.describe()["directory"]


class TestPrivateL2Config:
    def test_l2_block_size_must_match(self):
        with pytest.raises(ConfigError):
            SystemConfig(l2=CacheConfig(sets=256, ways=8, block_bytes=128))

    def test_l2_must_cover_l1(self):
        with pytest.raises(ConfigError):
            SystemConfig(l2=CacheConfig(sets=32, ways=4))  # 128 < 256 blocks

    def test_valid_l2_accepted(self):
        cfg = SystemConfig(l2=CacheConfig(sets=256, ways=8))
        assert cfg.private_blocks_per_core == 2048
        # Directory provisioning follows the tracked (L2) level.
        assert cfg.directory_entries == 16 * 2048
