"""Observer end-to-end: null-probe equivalence, divergence, cadences."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import make_config
from repro.common.config import DirectoryKind
from repro.common.errors import ConfigError
from repro.obs import ObsConfig, attach, chrome_trace, validate_chrome_trace
from repro.obs.events import EV_DIR_EVICT, EV_MISS, EV_STASH_SPILL, decode_args
from repro.sim.simulator import Simulator
from repro.sim.system import build_system
from repro.workloads.suite import build_workload

from tests.conftest import tiny_config


def _run(config, trace, obs_config=None):
    system = build_system(config)
    observer = attach(system, obs_config) if obs_config is not None else None
    result = Simulator(system, observer=observer).run(trace)
    return system, observer, result


@pytest.fixture(scope="module")
def small_trace():
    return build_workload("mix", 16, 600, seed=3)


@pytest.fixture(scope="module")
def pressured_config():
    return make_config(kind=DirectoryKind.STASH, ratio=0.125)


class TestNullProbe:
    def test_all_off_config_attaches_nothing(self):
        system = build_system(tiny_config())
        assert attach(system, ObsConfig()) is None
        assert system.home._obs is None
        for controller in system.l1_controllers:
            assert controller._obs is None

    def test_negative_intervals_rejected(self):
        for name in ("epoch_interval", "trace_capacity", "invariant_interval"):
            with pytest.raises(ConfigError, match=name):
                ObsConfig(**{name: -1})

    def test_observed_run_reports_identical_results(
        self, pressured_config, small_trace
    ):
        _, _, plain = _run(pressured_config, small_trace)
        _, observer, observed = _run(
            pressured_config,
            small_trace,
            ObsConfig(epoch_interval=128, trace_capacity=4096),
        )
        # The strongest form of "zero-cost": observability adds nothing to
        # the stats tree and perturbs no simulated outcome, even when ON.
        assert observed.stats == plain.stats
        assert observed.cycles_per_core == plain.cycles_per_core
        assert observer.ring.total > 0
        assert len(observer.sampler.epochs) > 0

    def test_detach_restores_null_probe(self, pressured_config, small_trace):
        system, observer, _ = _run(
            pressured_config, small_trace, ObsConfig(trace_capacity=256)
        )
        assert system.home._obs is not None
        observer.detach()
        assert system.home._obs is None
        assert all(c._obs is None for c in system.l1_controllers)


class TestTracing:
    def test_under_provisioned_stash_emits_spills(
        self, pressured_config, small_trace
    ):
        _, observer, _ = _run(
            pressured_config, small_trace, ObsConfig(trace_capacity=65_536)
        )
        counts = observer.ring.counts_by_kind()
        assert counts.get("miss", 0) > 0
        assert counts.get("grant", 0) == counts["miss"]
        assert counts.get("stash_spill", 0) > 0

    def test_sparse_vs_stash_divergence(self, small_trace):
        """The acceptance scenario: at 1/8x provisioning the sparse
        directory floods eviction invalidations; the stash directory
        converts them into silent spills."""
        by_kind = {}
        for kind in (DirectoryKind.SPARSE, DirectoryKind.STASH):
            config = make_config(kind=kind, ratio=0.125)
            _, observer, _ = _run(
                config, small_trace,
                ObsConfig(epoch_interval=128, trace_capacity=65_536),
            )
            by_kind[kind] = observer
        sparse = by_kind[DirectoryKind.SPARSE]
        stash = by_kind[DirectoryKind.STASH]
        sparse_counts = sparse.ring.counts_by_kind()
        stash_counts = stash.ring.counts_by_kind()
        assert sparse_counts.get("dir_eviction", 0) > 10 * max(
            1, stash_counts.get("dir_eviction", 0)
        )
        assert stash_counts.get("stash_spill", 0) > 0
        assert sparse_counts.get("stash_spill", 0) == 0
        # And the epoch series shows the same story over time.
        key = "system.protocol.dir_eviction_inval_msgs"
        assert sum(sparse.sampler.delta_series(key)) > sum(
            stash.sampler.delta_series(key)
        )

    def test_trace_is_perfetto_valid(self, pressured_config, small_trace):
        _, observer, _ = _run(
            pressured_config, small_trace, ObsConfig(trace_capacity=4096)
        )
        assert validate_chrome_trace(chrome_trace(observer.ring)) == []

    def test_event_args_decode(self, pressured_config, small_trace):
        _, observer, _ = _run(
            pressured_config, small_trace, ObsConfig(trace_capacity=65_536)
        )
        for ts, kind, core, addr, dur, arg in observer.ring:
            fields = decode_args(kind, arg)
            assert "raw" not in fields
            if kind == EV_MISS:
                assert isinstance(fields["write"], bool)
            if kind == EV_DIR_EVICT:
                assert core == -1
            if kind == EV_STASH_SPILL:
                assert core >= 0  # stash victims are private: hider known


class TestEpochCadence:
    def test_epoch_count_matches_interval(self, pressured_config):
        trace = build_workload("mix", 16, 256, seed=3)
        total = trace.total_ops()
        interval = 512
        _, observer, _ = _run(
            pressured_config, trace, ObsConfig(epoch_interval=interval)
        )
        epochs = observer.sampler.epochs
        # Full epochs plus one final partial epoch covering the tail.
        expected = total // interval + (1 if total % interval else 0)
        assert len(epochs) == expected
        assert epochs[-1]["op"] == total
        ops = [epoch["op"] for epoch in epochs]
        assert ops == sorted(ops)

    def test_deltas_sum_to_final_stats(self, pressured_config, small_trace):
        _, observer, result = _run(
            pressured_config, small_trace, ObsConfig(epoch_interval=100)
        )
        key = "system.protocol.l1_misses"
        assert sum(observer.sampler.delta_series(key)) == result.stats[key]


class TestInvariantCadence:
    def test_observer_interval_drives_checks(self, small_trace):
        config = make_config(kind=DirectoryKind.STASH, ratio=0.25)
        system = build_system(config)
        calls = []
        original = system.check_invariants
        system.check_invariants = lambda: (calls.append(1), original())[1]
        observer = attach(system, ObsConfig(invariant_interval=200))
        Simulator(system, observer=observer).run(small_trace)
        total = small_trace.total_ops()
        # Every 200 ops, plus the unconditional end-of-run check.
        assert len(calls) == total // 200 + 1

    def test_violation_is_detected(self, small_trace):
        config = make_config(kind=DirectoryKind.STASH, ratio=0.25)
        system = build_system(config)
        system.check_invariants = lambda: (_ for _ in ()).throw(
            AssertionError("boom")
        )
        observer = attach(system, ObsConfig(invariant_interval=50))
        with pytest.raises(AssertionError):
            Simulator(system, observer=observer).run(small_trace)
