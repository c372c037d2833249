"""Metrics tests: counter/gauge/summary semantics and a strict round-trip
through the Prometheus text exposition format."""

from __future__ import annotations

import math

import pytest

from repro.service.metrics import (
    MetricsRegistry,
    parse_prometheus,
    render_gauge_dict,
)


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("jobs_total", "Jobs", ("kind",))
        c.inc(kind="stash")
        c.inc(2.0, kind="stash")
        c.inc(kind="sparse")
        parsed = parse_prometheus(registry.render())["jobs_total"]
        assert parsed == {(("kind", "stash"),): 3.0, (("kind", "sparse"),): 1.0}

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("n", "N")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1.0)

    def test_label_mismatch_rejected(self, registry):
        c = registry.counter("n", "N", ("kind",))
        with pytest.raises(ValueError, match="expected labels"):
            c.inc(flavor="mild")
        with pytest.raises(ValueError, match="expected labels"):
            c.inc()


class TestGauge:
    def test_callback_backed(self, registry):
        state = {"value": 1.5}
        g = registry.gauge_func("live", "Live", lambda: state["value"])
        assert g.samples()[0][2] == 1.5
        state["value"] = 2.5
        assert g.samples()[0][2] == 2.5


class TestSummary:
    def test_quantiles_and_totals(self, registry):
        s = registry.summary("latency", "Latency")
        for value in range(1, 101):
            s.observe(float(value))
        assert s.quantile(0.5) == 50.0
        assert s.quantile(0.99) == 99.0
        rendered = {suffix: v for suffix, _, v in s.samples()}
        assert rendered["_count"] == 100.0
        assert rendered["_sum"] == sum(range(1, 101))

    def test_window_slides(self, registry):
        s = registry.summary("latency", "Latency", window=10)
        for value in range(100):
            s.observe(float(value))
        assert s.quantile(0.5) >= 90.0  # only the last 10 remain

    def test_empty_quantile_is_nan(self, registry):
        s = registry.summary("latency", "Latency")
        assert math.isnan(s.quantile(0.5))


class TestRegistry:
    def test_duplicate_name_rejected(self, registry):
        registry.counter("x", "X")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge_func("x", "X", lambda: 0.0)


class TestRenderAndParse:
    def test_round_trip(self, registry):
        c = registry.counter("points_total", "Points", ("kind", "source"))
        c.inc(3, kind="stash", source="computed")
        c.inc(1, kind="sparse", source="cache")
        registry.gauge_func("depth", "Depth", lambda: 4.0)
        s = registry.summary("lat", "Latency")
        s.observe(0.25)
        text = registry.render()
        parsed = parse_prometheus(text)
        assert parsed["points_total"][
            (("kind", "stash"), ("source", "computed"))
        ] == 3.0
        assert parsed["points_total"][
            (("kind", "sparse"), ("source", "cache"))
        ] == 1.0
        assert parsed["depth"][()] == 4.0
        assert parsed["lat_count"][()] == 1.0
        assert parsed["lat"][(("quantile", "0.5"),)] == 0.25

    def test_help_and_type_lines(self, registry):
        registry.counter("x_total", "The X help text")
        text = registry.render()
        assert "# HELP x_total The X help text" in text
        assert "# TYPE x_total counter" in text

    def test_untouched_unlabeled_metrics_render_zero(self, registry):
        registry.counter("never_total", "Never")
        registry.counter("labeled_total", "Labeled", ("kind",))
        registry.gauge_func("idle", "Idle", lambda: 0)
        parsed = parse_prometheus(registry.render())
        assert parsed["never_total"][()] == 0.0
        assert parsed["idle"][()] == 0.0
        # A labeled family has no sample until a label set is incremented.
        assert "labeled_total" not in parsed

    def test_label_escaping_round_trips(self, registry):
        c = registry.counter("esc_total", "Esc", ("name",))
        nasty = 'quo"te\\back\nnewline'
        c.inc(name=nasty)
        parsed = parse_prometheus(registry.render())
        assert parsed["esc_total"][(("name", nasty),)] == 1.0

    def test_render_gauge_dict_parses(self):
        text = render_gauge_dict(
            "obs_gauge", "Obs gauges",
            {"dir_occupancy": 504.0, "stash_bits": 122.0},
            {"campaign": "abc123"},
        )
        parsed = parse_prometheus(text)
        assert parsed["obs_gauge"][
            (("gauge", "dir_occupancy"), ("campaign", "abc123"))
        ] == 504.0
        assert parsed["obs_gauge"][
            (("gauge", "stash_bits"), ("campaign", "abc123"))
        ] == 122.0

    @pytest.mark.parametrize(
        "junk",
        [
            "metric_without_value",
            "bad{unterminated 1",
            'bad{name=unquoted} 1',
            "name with spaces 1",
            "# BOGUS comment",
            "m 1\nm{x=\"unterminated} 2",
        ],
    )
    def test_parser_rejects_junk(self, junk):
        with pytest.raises(ValueError):
            parse_prometheus(junk)

    def test_parser_accepts_inf_and_nan(self):
        parsed = parse_prometheus("m_a +Inf\nm_b NaN\n")
        assert parsed["m_a"][()] == math.inf
        assert math.isnan(parsed["m_b"][()])
