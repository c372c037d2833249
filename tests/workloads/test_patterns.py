"""Unit tests for the sharing-pattern generators."""

import pytest

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.workloads.characterize import profile_trace
from repro.workloads.patterns import (
    migratory,
    private_working_set,
    producer_consumer,
    shared_read_only,
    streaming,
)

CORES = 4
OPS = 400


def rng():
    return DeterministicRng(3)


class TestPrivateWorkingSet:
    def test_fully_private(self):
        trace = private_working_set(CORES, OPS, rng(), ws_blocks=32)
        profile = profile_trace(trace, 64)
        assert profile.private_block_fraction == 1.0

    def test_ops_count(self):
        trace = private_working_set(CORES, OPS, rng())
        assert trace.total_ops() == CORES * OPS

    def test_working_set_bounded(self):
        trace = private_working_set(1, OPS, rng(), ws_blocks=16)
        assert trace.unique_blocks(64) <= 16

    def test_write_fraction_respected(self):
        trace = private_working_set(CORES, 2000, rng(), write_frac=0.5)
        assert 0.4 < trace.write_fraction() < 0.6

    def test_rejects_bad_write_frac(self):
        with pytest.raises(ConfigError):
            private_working_set(CORES, OPS, rng(), write_frac=1.5)


class TestSharedReadOnly:
    def test_shared_region_is_shared(self):
        trace = shared_read_only(CORES, OPS, rng(), shared_frac=0.6)
        profile = profile_trace(trace, 64)
        assert profile.private_block_fraction < 1.0
        # Some blocks must be touched by every core.
        assert profile.sharing_histogram.get(CORES, 0) > 0

    def test_shared_accesses_are_reads(self):
        trace = shared_read_only(CORES, OPS, rng(), shared_frac=1.0)
        assert trace.write_fraction() == 0.0


class TestProducerConsumer:
    def test_pairs_share_buffers(self):
        trace = producer_consumer(CORES, OPS, rng(), comm_frac=1.0, buffer_blocks=8)
        profile = profile_trace(trace, 64)
        # All traffic hits per-pair buffers: sharing degree exactly 2.
        assert profile.degree_fraction(2) == 1.0

    def test_producer_writes_consumer_reads(self):
        trace = producer_consumer(
            2, OPS, rng(), comm_frac=1.0, return_frac=0.0
        ).to_trace()
        assert all(w for _, w in trace.ops[0])
        assert not any(w for _, w in trace.ops[1])

    def test_return_buffer_reverses_roles(self):
        # On the return buffer the "consumer" core writes and the
        # "producer" core reads — both directions of the hand-off exist.
        trace = producer_consumer(
            2, OPS, rng(), comm_frac=1.0, return_frac=1.0
        ).to_trace()
        assert not any(w for _, w in trace.ops[0])
        assert all(w for _, w in trace.ops[1])

    def test_forward_and_return_buffers_disjoint(self):
        fwd = producer_consumer(
            2, OPS, rng(), comm_frac=1.0, return_frac=0.0
        ).to_trace()
        ret = producer_consumer(
            2, OPS, rng(), comm_frac=1.0, return_frac=1.0
        ).to_trace()
        fwd_blocks = {a >> 6 for core in range(2) for a, _ in fwd.ops[core]}
        ret_blocks = {a >> 6 for core in range(2) for a, _ in ret.ops[core]}
        assert not (fwd_blocks & ret_blocks)

    def test_rejects_bad_return_frac(self):
        with pytest.raises(ConfigError):
            producer_consumer(CORES, OPS, rng(), return_frac=1.5)


class TestMigratory:
    def test_migratory_blocks_widely_touched(self):
        trace = migratory(CORES, OPS, rng(), migratory_frac=0.9, migratory_blocks=8)
        profile = profile_trace(trace, 64)
        assert profile.sharing_histogram.get(CORES, 0) > 0

    def test_burst_contains_reads_and_writes(self):
        trace = migratory(1, 200, rng(), migratory_frac=1.0, burst=8)
        writes = trace.write_fraction()
        assert 0.3 < writes < 0.7

    def test_ops_count_exact(self):
        trace = migratory(CORES, 123, rng())
        for core in range(CORES):
            assert trace.core_ops(core) == 123

    def test_burst_opens_with_read_then_alternates(self):
        # Regression: the burst loop used the global op index for its
        # read/write parity, so bursts starting on an odd index opened
        # with a write and the intended read-modify-write shape (and any
        # fixed write fraction) drifted with burst alignment.  Parity is
        # now burst-local: positions 0, 2, 4... read; 1, 3, 5... write.
        trace = migratory(1, 200, rng(), migratory_frac=1.0, burst=4).to_trace()
        ops = trace.ops[0]
        for start in range(0, 200, 4):
            chunk = ops[start:start + 4]
            assert [w for _, w in chunk] == [False, True, False, True]
            assert len({a for a, _ in chunk}) == 1  # one block per burst

    def test_exact_write_fraction_with_even_burst(self):
        trace = migratory(CORES, 400, rng(), migratory_frac=1.0, burst=8)
        assert trace.write_fraction() == 0.5


class TestBlockShiftValidation:
    def test_non_power_of_two_block_rejected_everywhere(self):
        # Regression: the shift was computed as bit_length() - 1, which
        # silently floor-rounded non-power-of-two block sizes (e.g. 48 ->
        # shift 5) and aliased distinct blocks; it is now log2_exact.
        generators = [
            private_working_set,
            shared_read_only,
            producer_consumer,
            migratory,
            streaming,
        ]
        for generator in generators:
            with pytest.raises(ConfigError):
                generator(CORES, 16, rng(), block_bytes=48)

    def test_power_of_two_blocks_accepted(self):
        for block_bytes in (32, 64, 128):
            trace = streaming(1, 16, rng(), block_bytes=block_bytes)
            assert trace.total_ops() == 16


class TestStreaming:
    def test_low_reuse(self):
        trace = streaming(1, 300, rng(), stream_blocks=1000)
        assert trace.unique_blocks(64) == 300  # every access a new block

    def test_private(self):
        trace = streaming(CORES, OPS, rng())
        assert profile_trace(trace, 64).private_block_fraction == 1.0


class TestDisjointRegions:
    def test_private_regions_never_overlap(self):
        trace = private_working_set(CORES, OPS, rng(), ws_blocks=64).to_trace()
        per_core_blocks = [
            {addr >> 6 for addr, _ in trace.ops[core]} for core in range(CORES)
        ]
        for a in range(CORES):
            for b in range(a + 1, CORES):
                assert not (per_core_blocks[a] & per_core_blocks[b])


class TestFalseSharing:
    def test_hot_blocks_written_by_many_cores(self):
        from repro.workloads.patterns import false_sharing

        trace = false_sharing(CORES, OPS, rng(), fs_frac=1.0, hot_blocks=4)
        profile = profile_trace(trace, 64)
        assert profile.sharing_histogram.get(CORES, 0) > 0
        assert trace.write_fraction() == 1.0

    def test_word_offsets_distinct_per_core(self):
        from repro.workloads.patterns import false_sharing

        trace = false_sharing(CORES, 50, rng(), fs_frac=1.0, hot_blocks=1).to_trace()
        offsets = {
            core: {addr % 64 for addr, _ in trace.ops[core]} for core in range(CORES)
        }
        # Each core writes one distinct word slot of the same line.
        all_offsets = [next(iter(s)) for s in offsets.values()]
        assert len(set(all_offsets)) == CORES

    def test_rejects_bad_frac(self):
        from repro.workloads.patterns import false_sharing

        with pytest.raises(ConfigError):
            false_sharing(CORES, OPS, rng(), fs_frac=2.0)


class TestLockContention:
    def test_lock_lines_heavily_shared(self):
        from repro.workloads.patterns import lock_contention

        trace = lock_contention(CORES, OPS, rng(), lock_frac=0.8, num_locks=2)
        profile = profile_trace(trace, 64)
        assert profile.sharing_histogram.get(CORES, 0) > 0

    def test_exact_op_count(self):
        from repro.workloads.patterns import lock_contention

        trace = lock_contention(CORES, 137, rng())
        for core in range(CORES):
            assert trace.core_ops(core) == 137

    def test_spin_reads_precede_acquire(self):
        from repro.workloads.patterns import lock_contention

        trace = lock_contention(1, 200, rng(), lock_frac=1.0, spin_reads=3).to_trace()
        ops = trace.ops[0]
        # First lock section: 3 reads then a write on the same address.
        first_addr = ops[0][0]
        assert [w for _, w in ops[:4]] == [False, False, False, True]
        assert all(addr == first_addr for addr, _ in ops[:4])

    def test_rejects_bad_params(self):
        from repro.workloads.patterns import lock_contention

        with pytest.raises(ConfigError):
            lock_contention(CORES, OPS, rng(), lock_frac=-0.1)
        with pytest.raises(ConfigError):
            lock_contention(CORES, OPS, rng(), spin_reads=-1)
        with pytest.raises(ConfigError):
            lock_contention(CORES, OPS, rng(), num_locks=0)


class TestPhased:
    def test_alternates_private_and_shared(self):
        from repro.workloads.patterns import phased

        trace = phased(CORES, 400, rng(), compute_len=8, exchange_len=8)
        profile = profile_trace(trace, 64)
        assert 0.0 < profile.private_block_fraction < 1.0
        # Exchange blocks are touched by every core.
        assert profile.sharing_histogram.get(CORES, 0) > 0

    def test_exchange_split_producers_consumers(self):
        from repro.workloads.patterns import phased

        trace = phased(2, 200, rng(), compute_len=1, exchange_len=8,
                       compute_blocks=8, exchange_blocks=8).to_trace()
        # Even cores write during exchange; odd cores only read shared data.
        shared_min = min(a for a, _ in trace.ops[1])
        odd_shared_writes = [
            w for a, w in trace.ops[1] if a >= shared_min and w
        ]
        assert odd_shared_writes.count(True) <= len(odd_shared_writes)

    def test_rejects_bad_phase_lengths(self):
        from repro.workloads.patterns import phased

        with pytest.raises(ConfigError):
            phased(CORES, OPS, rng(), compute_len=0)

    def test_suite_entry_builds(self):
        from repro.workloads.suite import build_workload

        trace = build_workload("phased-like", 4, 200, seed=1)
        assert trace.total_ops() == 800
