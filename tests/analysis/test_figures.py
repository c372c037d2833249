"""Unit tests for text-figure rendering."""

from repro.analysis.figures import render_grouped_bars, render_series


class TestRenderSeries:
    def test_series_as_columns(self):
        text = render_series(
            "fig", "R", ["1x", "1/2x"], {"sparse": [1.0, 1.2], "stash": [1.0, 1.01]}
        )
        assert "sparse" in text and "stash" in text
        assert "1/2x" in text

    def test_values_rendered(self):
        text = render_series("fig", "x", [1], {"s": [3.14159]})
        assert "3.142" in text


class TestGroupedBars:
    def test_groups_per_x(self):
        text = render_grouped_bars(
            "t", ["1x", "2x"], {"sparse": [1, 2], "stash": [1, 1]}
        )
        assert text.count("sparse") == 2
        assert text.count("stash") == 2

    def test_title_present(self):
        assert render_grouped_bars("Title", ["x"], {"s": [1]}).startswith("Title")


class TestSparkline:
    def test_empty(self):
        from repro.analysis.figures import render_sparkline

        assert render_sparkline([]) == ""

    def test_length_capped_to_width(self):
        from repro.analysis.figures import render_sparkline

        line = render_sparkline(list(range(500)), width=40)
        assert len(line) == 40

    def test_short_series_unchanged_length(self):
        from repro.analysis.figures import render_sparkline

        assert len(render_sparkline([1, 2, 3])) == 3

    def test_monotone_series_ends_high(self):
        from repro.analysis.figures import SPARK_GLYPHS, render_sparkline

        line = render_sparkline([0, 1, 2, 3, 4])
        assert line[-1] == SPARK_GLYPHS[-1]
        assert line[0] == SPARK_GLYPHS[0]

    def test_all_zero(self):
        from repro.analysis.figures import SPARK_GLYPHS, render_sparkline

        assert set(render_sparkline([0, 0, 0])) == {SPARK_GLYPHS[0]}
