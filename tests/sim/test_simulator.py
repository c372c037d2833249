"""Unit tests for the trace-driven simulator loop."""

import pytest

from repro.common.config import DirectoryKind
from repro.common.errors import TraceError
from repro.obs import ObsConfig, attach
from repro.obs.events import EV_MISS
from repro.sim.simulator import Simulator, run_trace
from repro.sim.system import build_system
from repro.sim.trace import PackedTrace
from tests.conftest import checked_simulator, tiny_config


def make_trace(num_cores=4, ops_per_core=10, stride=64):
    trace = PackedTrace(num_cores)
    for core in range(num_cores):
        for i in range(ops_per_core):
            trace.append(core, (core * 1000 + i) * stride, i % 3 == 0)
    return trace


def checked_run(config, trace):
    """Run ``trace`` with the invariant suite checked along the way."""
    return checked_simulator(build_system(config)).run(trace)


class TestRun:
    def test_processes_all_ops(self):
        result = checked_run(tiny_config(), make_trace())
        assert result.total_accesses == 40

    def test_clocks_advance_per_core(self):
        result = checked_run(tiny_config(), make_trace())
        assert all(c > 0 for c in result.cycles_per_core)
        assert result.execution_time == max(result.cycles_per_core)

    def test_trace_with_fewer_cores_than_system(self):
        trace = make_trace(num_cores=2)
        result = checked_run(tiny_config(num_cores=4), trace)
        assert result.total_accesses == 20

    def test_trace_with_more_cores_rejected(self):
        trace = make_trace(num_cores=8)
        with pytest.raises(TraceError):
            run_trace(tiny_config(num_cores=4), trace)

    def test_empty_trace(self):
        result = checked_run(tiny_config(), PackedTrace(4))
        assert result.total_accesses == 0
        assert result.execution_time == 0

    def test_uneven_core_streams(self):
        trace = PackedTrace(4)
        for i in range(20):
            trace.append(0, i * 64, False)
        trace.append(1, 0x9000, True)
        result = checked_run(tiny_config(), trace)
        assert result.total_accesses == 21

    def test_observed_run_trace_runs_the_observed_system(self):
        config = tiny_config(DirectoryKind.STASH, ratio=0.125)
        observer = attach(
            build_system(config), ObsConfig(epoch_interval=8, trace_capacity=4096)
        )
        result = run_trace(config, make_trace(), observer=observer)
        assert result.stats == observer.system.flat_stats()
        assert observer.ring.total > 0
        accesses = observer.sampler.delta_series("system.protocol.accesses")
        assert sum(accesses) == result.total_accesses == 40


class TestInterleave:
    def test_timestamp_order_interleaves_cores(self):
        """All cores make progress; no core finishes before others start."""
        system = build_system(tiny_config())
        observer = attach(system, ObsConfig(trace_capacity=1024))
        Simulator(system, observer=observer).run(make_trace(num_cores=4, ops_per_core=5))
        # Every op touches a fresh block, so the misses give the issue
        # order: the first 4 issued ops must come from 4 different cores.
        order = [event[2] for event in observer.ring if event[1] == EV_MISS]
        assert set(order[:4]) == {0, 1, 2, 3}

    def test_invariant_interval_runs_checks(self):
        system = build_system(tiny_config())
        calls = []
        original = system.check_invariants
        system.check_invariants = lambda: calls.append(1) or original()
        checked_simulator(system, every=8).run(make_trace(ops_per_core=10))
        assert len(calls) == 40 // 8 + 1  # periodic + final

    def test_effective_tracking_sampled(self):
        system = build_system(tiny_config())
        result = Simulator(system, sample_interval=10).run(
            make_trace(num_cores=4, ops_per_core=10)
        )
        assert len(result.effective_tracking_samples) == 4


class TestDeterminism:
    def test_same_config_same_result(self):
        trace = make_trace()
        a = run_trace(tiny_config(DirectoryKind.STASH), trace)
        b = run_trace(tiny_config(DirectoryKind.STASH), trace)
        assert a.execution_time == b.execution_time
        assert a.stats == b.stats


class TestWarmup:
    def test_warmup_discards_stats(self):
        trace = make_trace(num_cores=4, ops_per_core=10)
        cold = run_trace(tiny_config(), trace)
        system = build_system(tiny_config())
        warm = Simulator(system, warmup_ops=20).run(trace)
        # Only post-warmup accesses are counted.
        assert warm.total_accesses == cold.total_accesses - 20

    def test_warmup_preserves_cache_state(self):
        """Post-warmup miss rates are lower than cold-start miss rates for a
        trace that revisits its working set."""
        trace = PackedTrace(1)
        for _ in range(3):
            for block in range(8):
                trace.append(0, block * 64, False)
        system = build_system(tiny_config(num_cores=1, l1_sets=4, l1_ways=2))
        warm = Simulator(system, warmup_ops=8).run(trace)
        assert warm.l1_miss_rate == 0.0  # all 16 measured accesses hit

    def test_warmup_time_measured_from_region_start(self):
        trace = make_trace(num_cores=2, ops_per_core=20)
        full = run_trace(tiny_config(), trace)
        system = build_system(tiny_config())
        warm = Simulator(system, warmup_ops=10).run(trace)
        assert warm.execution_time < full.execution_time

    def test_negative_warmup_rejected(self):
        system = build_system(tiny_config())
        with pytest.raises(TraceError):
            Simulator(system, warmup_ops=-1)

    def test_warmup_longer_than_trace_rejected(self):
        trace = make_trace(num_cores=4, ops_per_core=10)
        config = tiny_config()
        whole = Simulator(build_system(config), warmup_ops=40).run(trace)
        assert whole.total_accesses == 0
        with pytest.raises(TraceError, match="exceeds"):
            Simulator(build_system(config), warmup_ops=41).run(trace)

    def test_zero_warmup_is_default_behaviour(self):
        trace = make_trace()
        a = run_trace(tiny_config(), trace)
        system = build_system(tiny_config())
        b = Simulator(system, warmup_ops=0).run(trace)
        assert a.total_accesses == b.total_accesses
        assert a.execution_time == b.execution_time
