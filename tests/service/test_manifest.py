"""Campaign-manifest tests: round-trip, strict rejection, deterministic
expansion order, and the grid-size ceiling."""

from __future__ import annotations

import json

import pytest

from repro.common.config import DirectoryKind
from repro.service.manifest import (
    ABSOLUTE_MAX_POINTS,
    FACTOR_DEFAULTS,
    FACTOR_ORDER,
    CampaignManifest,
    ManifestError,
    parse_manifest,
)

TINY = {
    "name": "tiny",
    "factors": {
        "kind": ["sparse", "stash"],
        "ratio": [0.5, 0.125],
        "workload": ["mix"],
        "ops": [200],
        "cores": [16],
    },
}


def manifest(**overrides) -> CampaignManifest:
    data = dict(TINY)
    data.update(overrides)
    return CampaignManifest.from_dict(data)


class TestRoundTrip:
    def test_to_dict_from_dict_identity(self):
        m = manifest()
        assert CampaignManifest.from_dict(m.to_dict()) == m

    def test_round_trip_with_all_fields(self):
        m = manifest(
            replicates=2,
            seed_stride=500,
            config={"moesi": True, "dir_ways": 4},
            observe={"epoch": 128},
        )
        again = CampaignManifest.from_dict(m.to_dict())
        assert again == m
        assert again.campaign_id == m.campaign_id

    def test_canonical_json_is_stable(self):
        assert manifest().canonical_json() == manifest().canonical_json()
        # Key order in the input dict must not matter.
        reordered = {k: TINY[k] for k in reversed(list(TINY))}
        assert (
            CampaignManifest.from_dict(reordered).campaign_id
            == manifest().campaign_id
        )

    def test_campaign_id_differs_with_content(self):
        assert manifest().campaign_id != manifest(name="other").campaign_id

    def test_defaults_fill_missing_factors(self):
        m = CampaignManifest.from_dict({"factors": {"kind": ["stash"]}})
        for factor in FACTOR_ORDER:
            assert len(m.factors[factor]) >= 1
        assert m.factors["workload"] == FACTOR_DEFAULTS["workload"]

    def test_scalar_level_normalized_to_list(self):
        m = CampaignManifest.from_dict({"factors": {"kind": "stash"}})
        assert m.factors["kind"] == ("stash",)

    def test_parse_manifest_bytes(self):
        m = parse_manifest(json.dumps(TINY).encode())
        assert m == manifest()

    def test_parse_manifest_rejects_bad_json(self):
        with pytest.raises(ManifestError, match="not valid JSON"):
            parse_manifest(b"{nope")


class TestRejection:
    @pytest.mark.parametrize(
        "data,match",
        [
            ({"bogus": 1}, "unknown manifest fields"),
            ({"name": ""}, "'name'"),
            ({"name": "x" * 200}, "'name'"),
            ({"factors": {"flavor": ["mild"]}}, "unknown factors"),
            ({"factors": {"kind": ["quantum"]}}, "unknown directory kind"),
            ({"factors": {"kind": []}}, "non-empty list"),
            ({"factors": {"workload": ["nacho-like"]}}, "unknown workload"),
            ({"factors": {"cores": [17]}}, "unsupported core count"),
            ({"factors": {"cores": [True]}}, "cores levels"),
            ({"factors": {"ratio": [-1.0]}}, "ratio levels"),
            ({"factors": {"ops": [0]}}, "ops levels"),
            ({"factors": {"engine": ["warp"]}}, "unknown engine"),
            ({"factors": {"seed": ["one"]}}, "seed levels"),
            ({"replicates": 0}, "'replicates'"),
            ({"seed_stride": 0}, "'seed_stride'"),
            ({"config": {"turbo": True}}, "unknown config override"),
            ({"config": {"moesi": "yes"}}, "must be a bool"),
            ({"config": {"dir_ways": -1}}, "non-negative integer"),
            ({"config": {"sharer_format": "morse"}}, "unknown sharer_format"),
            ({"observe": {"trace": 1}}, "only the 'epoch' key"),
            ({"observe": {"epoch": -1}}, "'observe.epoch'"),
            ({"factors": {"engine": ["parallel"]}}, "unknown engine"),
            ({"factors": {"kind": ["in_llc"]}}, "unknown directory kind"),
        ],
    )
    def test_invalid_manifest_raises(self, data, match):
        with pytest.raises(ManifestError, match=match):
            CampaignManifest.from_dict(data)

    def test_oversized_grid_rejected_by_limit(self):
        m = manifest(replicates=3)  # 2 x 2 x 3 = 12 points
        with pytest.raises(ManifestError, match="over the limit"):
            m.expand(max_points=10)
        assert len(m.expand(max_points=12)) == 12

    def test_absolute_ceiling_applies(self):
        m = manifest(replicates=ABSOLUTE_MAX_POINTS + 1)
        with pytest.raises(ManifestError, match="over the limit"):
            # Even an enormous caller-supplied limit is clamped.
            m.expand(max_points=ABSOLUTE_MAX_POINTS * 10)


class TestExpansion:
    def test_order_is_deterministic(self):
        first = manifest().expand()
        second = manifest().expand()
        assert [s.labels for s in first] == [s.labels for s in second]
        assert [s.index for s in first] == list(range(len(first)))

    def test_grid_size_matches_expansion(self):
        m = manifest(replicates=2)
        assert m.grid_size() == len(m.expand()) == 8

    def test_factor_order_outer_to_inner(self):
        labels = [s.labels for s in manifest().expand()]
        # kind is the outermost factor: first half sparse, second half stash.
        assert [l["kind"] for l in labels] == ["sparse"] * 2 + ["stash"] * 2
        assert [l["ratio"] for l in labels] == [0.5, 0.125, 0.5, 0.125]

    def test_points_carry_the_right_config(self):
        spec = manifest().expand()[0]
        point = spec.point
        assert point.workload == "mix"
        assert point.ops_per_core == 200
        assert point.config.num_cores == 16
        assert point.config.directory.kind is DirectoryKind.SPARSE
        assert point.config.directory.coverage_ratio == 0.5
        assert not point.observed

    def test_replicates_shift_seeds_by_stride(self):
        m = manifest(replicates=3, seed_stride=100)
        seeds = [s.labels["seed"] for s in m.expand()[:3]]
        assert seeds == [1, 101, 201]
        replicates = [s.labels["replicate"] for s in m.expand()[:3]]
        assert replicates == [0, 1, 2]

    def test_config_overrides_reach_the_config(self):
        m = manifest(config={"moesi": True, "dir_ways": 4})
        config = m.expand()[0].point.config
        assert config.directory.ways == 4

    def test_observed_campaign_builds_obs_points(self):
        m = manifest(observe={"epoch": 64})
        point = m.expand()[0].point
        assert point.observed
        assert point.obs.epoch_interval == 64

    def test_engine_factor_respected(self):
        m = CampaignManifest.from_dict(
            {"factors": {"kind": ["stash"], "engine": ["vector"]}}
        )
        assert m.expand()[0].point.engine == "vector"
