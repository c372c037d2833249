"""Property tests: serialization round-trips over random configurations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.io import config_from_dict, config_to_dict
from repro.common.mesi import CoherenceProtocol
from repro.common.config import (
    CacheConfig,
    DirectoryConfig,
    DirectoryKind,
    MemoryModel,
    NoCConfig,
    SharerFormat,
    StashEligibility,
    SystemConfig,
)

POW2 = st.sampled_from([1, 2, 4, 8, 16, 32, 64])


@st.composite
def system_configs(draw):
    """Random valid SystemConfigs spanning the whole option space."""
    l1_sets = draw(POW2)
    l1_ways = draw(st.integers(1, 4))
    cores = draw(st.sampled_from([1, 2, 4]))
    mesh_w = draw(st.sampled_from([2, 4]))
    mesh_h = 2 if mesh_w * 2 >= cores else 4
    use_l2 = draw(st.booleans())
    l2 = None
    if use_l2:
        l2 = CacheConfig(sets=max(l1_sets, 8), ways=max(l1_ways, 2))
    return SystemConfig(
        num_cores=cores,
        l1=CacheConfig(sets=l1_sets, ways=l1_ways),
        l2=l2,
        llc=CacheConfig(sets=64, ways=4),
        directory=DirectoryConfig(
            kind=draw(st.sampled_from(list(DirectoryKind))),
            coverage_ratio=draw(st.sampled_from([0.125, 0.5, 1.0, 2.0])),
            ways=draw(st.integers(1, 8)),
            sharer_format=draw(st.sampled_from(list(SharerFormat))),
            stash_eligibility=draw(st.sampled_from(list(StashEligibility))),
            clean_eviction_notification=draw(st.booleans()),
            discovery_filter_slots=draw(st.sampled_from([0, 8, 64])),
        ),
        noc=NoCConfig(mesh_width=mesh_w, mesh_height=mesh_h),
        memory_model=draw(st.sampled_from(list(MemoryModel))),
        protocol=draw(st.sampled_from(list(CoherenceProtocol))),
        seed=draw(st.integers(0, 1000)),
    )


@settings(max_examples=60, deadline=None)
@given(config=system_configs())
def test_config_roundtrip_property(config):
    """Any valid configuration survives serialization exactly."""
    assert config_from_dict(config_to_dict(config)) == config


@settings(max_examples=60, deadline=None)
@given(config=system_configs())
def test_config_dict_is_json_safe(config):
    import json

    json.loads(json.dumps(config_to_dict(config)))


@settings(max_examples=30, deadline=None)
@given(config=system_configs())
def test_config_hashable_and_equal_by_value(config):
    """simulate()'s memo key relies on frozen-dataclass hashing."""
    clone = config_from_dict(config_to_dict(config))
    assert hash(clone) == hash(config)
    assert {config: 1}[clone] == 1
