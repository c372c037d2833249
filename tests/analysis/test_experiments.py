"""Unit tests for the experiment registry (small parameterizations).

These exercise every run_* function with tiny workloads so the full suite
stays fast; the benchmark harness runs the paper-scale versions.
"""

import pytest

from repro.analysis import experiments as exp
from repro.common.config import DirectoryKind
from repro.common.errors import ConfigError

WLS = ["blackscholes-like"]
OPS = 300


@pytest.fixture(autouse=True)
def fresh_cache():
    exp.clear_cache()
    yield
    exp.clear_cache()


class TestHelpers:
    def test_geomean(self):
        assert exp.geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_empty(self):
        assert exp.geomean([]) == 0.0

    def test_geomean_ignores_nonpositive(self):
        assert exp.geomean([0.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_resolve_workloads(self):
        assert exp.resolve_workloads(None) == exp.QUICK_WORKLOADS
        assert len(exp.resolve_workloads("all")) == 9
        assert exp.resolve_workloads(["mix"]) == ["mix"]

    def test_make_config_core_scaling(self):
        cfg = exp.make_config(num_cores=64)
        assert cfg.noc.nodes == 64
        assert cfg.llc.blocks >= 64 * cfg.l1.blocks

    def test_make_config_rejects_odd_core_count(self):
        with pytest.raises(ConfigError):
            exp.make_config(num_cores=24)

    def test_simulate_memoizes(self):
        cfg = exp.make_config(DirectoryKind.SPARSE, 1.0)
        a = exp.simulate("mix", cfg, ops_per_core=OPS)
        b = exp.simulate("mix", cfg, ops_per_core=OPS)
        assert a is b


class TestStaticExperiments:
    def test_config_table(self):
        out = exp.run_config_table()
        assert out.experiment_id == "T1"
        assert "cores" in out.text

    def test_storage_table(self):
        out = exp.run_storage_table()
        assert "sparse" in out.text and "stash" in out.text
        # Stash at 1/8 must be far smaller than sparse at 1x.
        assert out.data["stash@0.125"] < 0.3 * out.data["sparse@1.0"]


class TestSimulationExperiments:
    def test_characterization(self):
        out = exp.run_characterization(WLS, ops_per_core=OPS)
        assert out.data["blackscholes-like"]["private_block_fraction"] > 0.9

    def test_invalidation_sweep_monotone_pressure(self):
        out = exp.run_invalidation_sweep(WLS, ratios=[1.0, 0.125], ops_per_core=OPS)
        series = out.data["series"]["blackscholes-like"]
        assert series[1] > series[0]  # less directory => more invalidations

    def test_performance_sweep_shapes(self):
        out = exp.run_performance_sweep(
            WLS,
            ratios=[1.0, 0.125],
            kinds=[DirectoryKind.SPARSE, DirectoryKind.STASH],
            ops_per_core=OPS,
        )
        sparse = out.data["series"]["sparse"]
        stash = out.data["series"]["stash"]
        assert sparse[1] > stash[1]  # stash wins under pressure

    def test_headline(self):
        out = exp.run_headline(WLS, ops_per_core=OPS)
        rows = out.data["rows"]
        geomean_row = rows[-1]
        assert geomean_row[0] == "geomean"
        assert geomean_row[3] < geomean_row[2]  # stash@1/8 beats sparse@1/8

    def test_discovery_stats(self):
        out = exp.run_discovery_stats(WLS, ratios=[0.125], ops_per_core=OPS)
        disc_per_kilo, false_rate = out.data["blackscholes-like@0.125"]
        assert disc_per_kilo >= 0
        assert 0 <= false_rate <= 1

    def test_effective_capacity_expansion(self):
        out = exp.run_effective_capacity(WLS, ratio=0.125, ops_per_core=1200)
        assert out.data["blackscholes-like"] > 1.0  # stash extends reach

    def test_energy_comparison(self):
        out = exp.run_energy_comparison(WLS, ratios=[1.0, 0.125], ops_per_core=OPS)
        assert set(out.data["series"]) == {"sparse", "stash"}

    def test_ablation_outputs(self):
        for runner in (
            exp.run_ablation_eligibility,
            exp.run_ablation_notification,
        ):
            out = runner(WLS, ops_per_core=OPS)
            assert out.data["rows"]

    def test_traffic_sweep(self):
        out = exp.run_traffic_sweep(WLS, ratios=[1.0, 0.125], ops_per_core=OPS)
        assert "stash" in out.data["series"]


class TestSeedStatistics:
    def test_mean_std(self):
        from repro.analysis.experiments import mean_std

        mean, std = mean_std([2.0, 4.0])
        assert mean == 3.0 and std == 1.0

    def test_mean_std_empty(self):
        from repro.analysis.experiments import mean_std

        assert mean_std([]) == (0.0, 0.0)

    def test_run_seed_stability_output(self):
        from repro.analysis.experiments import run_seed_stability

        out = run_seed_stability(WLS, seeds=(1, 2), ops_per_core=OPS)
        stats = out.data["blackscholes-like"]
        assert stats["stash"][0] > 0
        assert "mean" in out.text
