"""Unit tests for result serialization and comparison."""

import pytest

from repro.analysis.io import (
    compare_results,
    config_from_dict,
    config_to_dict,
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.common.config import CacheConfig, DirectoryKind, MemoryModel, SharerFormat
from repro.common.errors import ConfigError, TraceError
from repro.sim.simulator import run_trace
from repro.sim.trace import Trace
from tests.conftest import tiny_config


def small_result(kind=DirectoryKind.STASH):
    trace = Trace(4)
    for i in range(40):
        trace.append(i % 4, i * 64, i % 3 == 0)
    return run_trace(tiny_config(kind, check_invariants=False), trace)


class TestConfigRoundtrip:
    def test_roundtrip_preserves_everything(self):
        config = tiny_config(
            DirectoryKind.CUCKOO,
            ratio=0.25,
            sharer_format=SharerFormat.LIMITED_POINTER,
            clean_eviction_notification=True,
        )
        back = config_from_dict(config_to_dict(config))
        assert back == config

    def test_enums_survive(self):
        from dataclasses import replace

        config = replace(tiny_config(), memory_model=MemoryModel.DRAM)
        back = config_from_dict(config_to_dict(config))
        assert back.memory_model is MemoryModel.DRAM
        assert back.directory.kind is DirectoryKind.STASH

    def test_dict_is_json_plain(self):
        import json

        json.dumps(config_to_dict(tiny_config()))  # must not raise

    def test_saved_lru_replacement_is_dropped(self):
        # Files written while caches named a replacement policy carry
        # "replacement": "lru" in every cache level.
        from dataclasses import replace

        config = replace(tiny_config(), l2=CacheConfig(sets=8, ways=2))
        data = config_to_dict(config)
        for level in ("l1", "l2", "llc"):
            data[level]["replacement"] = "lru"
        assert config_from_dict(data) == config

    def test_other_saved_replacement_rejected(self):
        data = config_to_dict(tiny_config())
        data["llc"]["replacement"] = "plru"
        with pytest.raises(ConfigError, match="plru"):
            config_from_dict(data)

    def test_saved_fixed_hier_knobs_are_dropped(self):
        # Files written while DirectoryConfig had hierarchical knobs carry
        # the auto cluster size and two pointers.
        config = tiny_config(sharer_format=SharerFormat.HIERARCHICAL)
        data = config_to_dict(config)
        assert "hier_cluster" not in data["directory"]
        data["directory"].update(hier_cluster=0, hier_pointers=2)
        assert config_from_dict(data) == config

    @pytest.mark.parametrize("field,value", [("hier_cluster", 4), ("hier_pointers", 3)])
    def test_other_saved_hier_knob_rejected(self, field, value):
        data = config_to_dict(tiny_config())
        data["directory"].update(hier_cluster=0, hier_pointers=2)
        data["directory"][field] = value
        with pytest.raises(ConfigError, match=field):
            config_from_dict(data)

    def test_saved_float_cpi_becomes_int(self):
        # Files written while the CPI was a float carry "core_fixed_cpi": 1.0.
        config = tiny_config()
        data = config_to_dict(config)
        assert data["timing"]["core_fixed_cpi"] == 1
        data["timing"]["core_fixed_cpi"] = 1.0
        loaded = config_from_dict(data)
        assert loaded == config
        assert type(loaded.timing.core_fixed_cpi) is int

    def test_saved_fractional_cpi_rejected(self):
        data = config_to_dict(tiny_config())
        data["timing"]["core_fixed_cpi"] = 1.5
        with pytest.raises(ConfigError, match="core_fixed_cpi"):
            config_from_dict(data)


class TestResultRoundtrip:
    def test_file_roundtrip(self, tmp_path):
        result = small_result()
        path = tmp_path / "run.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.execution_time == result.execution_time
        assert loaded.stats == result.stats
        assert loaded.config == result.config
        assert loaded.effective_tracking_samples == result.effective_tracking_samples

    def test_derived_metrics_survive(self, tmp_path):
        result = small_result()
        path = tmp_path / "run.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.l1_miss_rate == result.l1_miss_rate
        assert loaded.total_flit_hops == result.total_flit_hops

    def test_bad_version_rejected(self):
        data = result_to_dict(small_result())
        data["format_version"] = 99
        with pytest.raises(TraceError):
            result_from_dict(data)


class TestCompare:
    def test_compare_table(self):
        stash = small_result(DirectoryKind.STASH)
        sparse = small_result(DirectoryKind.SPARSE)
        text = compare_results({"sparse": sparse, "stash": stash})
        assert "sparse" in text and "stash" in text
        assert "norm. time" in text

    def test_first_entry_is_baseline(self):
        result = small_result()
        text = compare_results({"base": result, "same": result})
        # Both rows normalized against "base": time columns read 1.000.
        assert text.count("1.000") >= 4

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            compare_results({})
