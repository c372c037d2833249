"""Text "figures": series tables plus ASCII bar charts.

A paper figure becomes (a) the exact numeric series, printed as a table,
and (b) a quick-look horizontal bar chart so trends are visible in a
terminal or a CI log.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .tables import format_cell, render_table

#: Width of the bar area in characters.
BAR_WIDTH = 40


def render_series(
    title: str,
    x_label: str,
    x_values: Sequence,
    series: Dict[str, Sequence[float]],
    precision: int = 3,
) -> str:
    """Render multiple named series over a shared x-axis as a table."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [values[i] for values in series.values()])
    return render_table(headers, rows, title=title, precision=precision)


def render_grouped_bars(
    title: str,
    x_labels: Sequence[str],
    series: Dict[str, Sequence[float]],
    unit: str = "",
) -> str:
    """Bar chart with one bar per (x, series) pair, grouped by x."""
    peak = max(
        (value for values in series.values() for value in values), default=1.0
    )
    if peak <= 0:
        peak = 1.0
    name_width = max((len(name) for name in series), default=0)
    x_width = max((len(str(x)) for x in x_labels), default=0)
    lines: List[str] = [title, "=" * len(title)]
    for i, x in enumerate(x_labels):
        for name, values in series.items():
            value = values[i]
            bar = "#" * max(0, round(BAR_WIDTH * value / peak))
            lines.append(
                f"{str(x).rjust(x_width)} {name.ljust(name_width)} | "
                f"{bar} {format_cell(value)}{unit}"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


#: Glyphs for sparkline rendering, low to high.
SPARK_GLYPHS = " .:-=+*#%@"


def render_sparkline(values: Sequence[float], width: int = 60) -> str:
    """One-line character sparkline of a series (e.g. occupancy over time).

    Values are downsampled to ``width`` points by averaging and mapped onto
    a ten-level glyph ramp scaled to the series maximum.
    """
    if not values:
        return ""
    if len(values) > width:
        bucket = len(values) / width
        values = [
            sum(values[int(i * bucket):max(int(i * bucket) + 1, int((i + 1) * bucket))])
            / max(1, len(values[int(i * bucket):max(int(i * bucket) + 1, int((i + 1) * bucket))]))
            for i in range(width)
        ]
    peak = max(values)
    if peak <= 0:
        return SPARK_GLYPHS[0] * len(values)
    levels = len(SPARK_GLYPHS) - 1
    return "".join(
        SPARK_GLYPHS[min(levels, round(levels * value / peak))] for value in values
    )
