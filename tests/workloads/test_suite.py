"""Unit tests for the named workload suite."""

import pytest

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.workloads import algorithms, patterns
from repro.workloads.characterize import profile_trace
from repro.workloads.suite import (
    SUITE,
    SUITE_ORDER,
    build_workload,
    workload_names,
)


class TestRegistry:
    def test_order_subset_of_registry(self):
        assert set(SUITE_ORDER) <= set(SUITE)

    def test_names_helper_lists_order_then_extras(self):
        from repro.workloads.suite import ALGORITHM_WORKLOADS, EXTRA_WORKLOADS

        assert workload_names() == (
            SUITE_ORDER + EXTRA_WORKLOADS + ALGORITHM_WORKLOADS
        )
        assert set(workload_names()) == set(SUITE)

    def test_every_spec_has_description(self):
        for spec in SUITE.values():
            assert spec.description

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            build_workload("nonexistent", 4, 100)


class TestGeneration:
    @pytest.mark.parametrize("name", sorted(SUITE))
    def test_every_workload_builds(self, name):
        trace = build_workload(name, 4, 200, seed=1)
        assert trace.total_ops() == 4 * 200
        assert trace.num_cores == 4

    def test_deterministic_by_seed(self):
        a = build_workload("mix", 4, 200, seed=5)
        b = build_workload("mix", 4, 200, seed=5)
        assert a == b

    def test_seed_changes_trace(self):
        a = build_workload("mix", 4, 200, seed=5)
        b = build_workload("mix", 4, 200, seed=6)
        assert a != b

    def test_scales_to_more_cores(self):
        trace = build_workload("blackscholes-like", 16, 50, seed=1)
        assert trace.num_cores == 16


class TestCharacteristics:
    """The stand-ins must exhibit the sharing class they claim (DESIGN.md)."""

    def test_blackscholes_like_mostly_private(self):
        profile = profile_trace(build_workload("blackscholes-like", 8, 500), 64)
        assert profile.private_block_fraction > 0.95

    def test_bodytrack_like_has_read_sharing(self):
        profile = profile_trace(build_workload("bodytrack-like", 8, 500), 64)
        assert profile.private_block_fraction < 0.9
        assert profile.sharing_histogram.get(8, 0) > 0

    def test_canneal_like_has_big_working_set(self):
        small = profile_trace(build_workload("swaptions-like", 8, 500), 64)
        big = profile_trace(build_workload("canneal-like", 8, 500), 64)
        assert big.unique_blocks > 3 * small.unique_blocks

    def test_radix_like_write_heavy(self):
        radix = profile_trace(build_workload("radix-like", 8, 500), 64)
        blacks = profile_trace(build_workload("blackscholes-like", 8, 500), 64)
        assert radix.write_fraction > blacks.write_fraction

    def test_mix_combines_patterns(self):
        profile = profile_trace(build_workload("mix", 8, 500), 64)
        assert 0.3 < profile.private_block_fraction < 1.0


GENERATORS = [
    patterns.private_working_set,
    patterns.shared_read_only,
    patterns.producer_consumer,
    patterns.migratory,
    patterns.streaming,
    patterns.false_sharing,
    patterns.lock_contention,
    patterns.phased,
    algorithms.graph_clustering,
    algorithms.tiled_matmul,
    algorithms.prime_sieve,
    algorithms.union_find,
]


class TestPerCoreBuilders:
    @pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
    def test_a_core_alone_gets_its_full_trace_stream(self, generator):
        full = generator(12, 150, DeterministicRng(4))
        build = generator.core_builder(12, 150, DeterministicRng(4))
        for core in (11, 0, 5):
            assert build(core) == full.streams[core]

    @pytest.mark.parametrize("num_cores", [1, 2, 3, 4, 5, 6, 9, 16])
    def test_mix_keeps_a_quarter_of_each_full_pattern(self, num_cores):
        # The definition mix had when it built four full traces.
        rng = DeterministicRng(8)
        full = [
            pattern(num_cores, 120, rng.spawn(group + 1))
            for group, pattern in enumerate((
                patterns.private_working_set,
                patterns.shared_read_only,
                patterns.producer_consumer,
                patterns.migratory,
            ))
        ]
        quarter = max(1, num_cores // 4)
        expected = [
            full[min(core // quarter, 3)].streams[core] for core in range(num_cores)
        ]
        assert build_workload("mix", num_cores, 120, seed=8).streams == expected

