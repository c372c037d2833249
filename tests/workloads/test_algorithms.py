"""Property tests for the algorithm-derived trace generators.

These generators model real algorithms (graph clustering, tiled matmul,
a prime sieve, union-find), so their sharing structure is *emergent*
rather than dialed in — the tests pin the properties the characterization
relies on: determinism, exact op budgets, region disjointness at scale,
and the headline access-mix of each algorithm.
"""

import pytest

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.workloads.algorithms import (
    _odd_primes,
    graph_clustering,
    prime_sieve,
    tiled_matmul,
    union_find,
)
from repro.workloads.characterize import profile_trace
from repro.workloads.patterns import REGION_SPAN
from repro.workloads.suite import ALGORITHM_WORKLOADS, build_workload

GENERATORS = [graph_clustering, tiled_matmul, prime_sieve, union_find]


def rng(seed=3):
    return DeterministicRng(seed)


def region_slot(addr: int) -> int:
    """Which REGION_SPAN slot a byte address falls in (64 B blocks).

    Slots < num_cores are per-core private regions; slot num_cores + r is
    shared region r.
    """
    return (addr >> 6) // REGION_SPAN


class TestDeterminism:
    @pytest.mark.parametrize("generator", GENERATORS)
    def test_same_seed_same_trace(self, generator):
        a = generator(8, 200, rng())
        b = generator(8, 200, rng())
        assert a == b

    @pytest.mark.parametrize("generator", GENERATORS)
    def test_different_seeds_differ(self, generator):
        a = generator(8, 200, rng(1))
        b = generator(8, 200, rng(2))
        assert a != b


class TestOpBudget:
    @pytest.mark.parametrize("generator", GENERATORS)
    @pytest.mark.parametrize("cores", [1, 4, 16])
    def test_exact_op_count(self, generator, cores):
        trace = generator(cores, 157, rng())
        for core in range(cores):
            assert trace.core_ops(core) == 157


class TestRegionDisjointness:
    @pytest.mark.parametrize("generator", GENERATORS)
    @pytest.mark.parametrize("cores", [16, 128, 1024])
    def test_private_regions_never_cross(self, generator, cores):
        # Region slots below num_cores are private; a core must never
        # touch another core's private slot, at any scale the weak-
        # scaling benchmark sweeps.
        ops = 64 if cores >= 128 else 200
        trace = generator(cores, ops, rng()).to_trace()
        for core in range(cores):
            for addr, _ in trace.ops[core]:
                slot = region_slot(addr)
                assert slot >= cores or slot == core


class TestGraphClustering:
    def test_frontier_reads_and_private_majority(self):
        trace = graph_clustering(16, 800, rng()).to_trace()
        frontier_writes = [
            w
            for core in range(16)
            for a, w in trace.ops[core]
            if region_slot(a) == 16 and w  # shared region 0
        ]
        assert not frontier_writes  # the frontier is read-only
        profile = profile_trace(trace, 64)
        # Private accumulators dominate the block population while the
        # frontier supplies a genuinely widely-shared tail.
        assert 0.5 < profile.private_block_fraction < 0.95
        assert profile.degree_fraction(16) > 0.0

    def test_rejects_overcommitted_fracs(self):
        with pytest.raises(ConfigError):
            graph_clustering(4, 100, rng(), frontier_frac=0.7, label_frac=0.5)


class TestTiledMatmul:
    def test_barrier_line_touched_by_every_core(self):
        trace = tiled_matmul(8, 400, rng()).to_trace()
        cores_on_barrier = {
            core
            for core in range(8)
            for a, _ in trace.ops[core]
            if region_slot(a) == 8 + 1  # shared region 1
        }
        assert cores_on_barrier == set(range(8))

    def test_degree_two_tile_handoffs_dominate(self):
        profile = profile_trace(tiled_matmul(16, 800, rng()), 64)
        assert profile.degree_fraction(2) > 0.4

    def test_rejects_short_phase(self):
        with pytest.raises(ConfigError):
            tiled_matmul(4, 100, rng(), phase_len=1)


class TestPrimeSieve:
    def test_write_dominated(self):
        trace = prime_sieve(16, 800, rng())
        assert trace.write_fraction() > 0.7

    def test_bitmap_accesses_are_all_writes(self):
        trace = prime_sieve(8, 400, rng()).to_trace()
        for core in range(8):
            for a, w in trace.ops[core]:
                if region_slot(a) == 8:  # shared region 0
                    assert w

    def test_bitmap_widely_shared(self):
        profile = profile_trace(prime_sieve(16, 800, rng()), 64)
        assert profile.degree_fraction(16) > 0.0

    def test_rejects_tiny_bitmap(self):
        with pytest.raises(ConfigError):
            prime_sieve(4, 100, rng(), bitmap_blocks=1)


class TestUnionFind:
    def test_mixed_private_and_shared(self):
        profile = profile_trace(union_find(16, 800, rng()), 64)
        assert 0.0 < profile.private_block_fraction < 1.0
        # Hot roots migrate across every core.
        assert profile.degree_fraction(16) > 0.0

    def test_rejects_bad_depth(self):
        with pytest.raises(ConfigError):
            union_find(4, 100, rng(), max_depth=0)
        with pytest.raises(ConfigError):
            union_find(4, 100, rng(), node_blocks=2, max_depth=6)


class TestHelpers:
    def test_odd_primes(self):
        assert _odd_primes(6) == [3, 5, 7, 11, 13, 17]

    @pytest.mark.parametrize("generator", GENERATORS)
    def test_non_power_of_two_block_rejected(self, generator):
        with pytest.raises(ConfigError):
            generator(4, 16, rng(), block_bytes=48)


class TestSuiteIntegration:
    @pytest.mark.parametrize("name", ALGORITHM_WORKLOADS)
    def test_registered_and_buildable(self, name):
        trace = build_workload(name, 4, 100, seed=2)
        assert trace.total_ops() == 400
