"""Minimal Prometheus-text-format metrics: counters, gauges, summaries.

Stdlib-only instrumentation for the campaign service's ``GET /metrics``
endpoint.  Three metric kinds cover everything the service exposes:

* :class:`Counter` — monotonically increasing, optionally labeled
  (``repro_points_completed_total{kind="stash",source="computed"}``).
* :class:`Gauge` — a callback read at render time
  (:meth:`MetricsRegistry.gauge_func`): queue depth, worker utilization
  and cache hit rates are all live views, not pushed samples.
* :class:`Summary` — sliding-window quantiles (p50/p90/p99) plus
  ``_count``/``_sum``, for submit→result latency.

:meth:`MetricsRegistry.render` emits the `Prometheus text exposition
format <https://prometheus.io/docs/instrumenting/exposition_formats/>`_
(``# HELP`` / ``# TYPE`` headers, escaped label values, one sample per
line); :func:`parse_prometheus` is the matching strict parser — tests,
the load generator and the CI smoke job all round-trip through it, so a
format regression fails loudly.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Summary",
    "parse_prometheus",
    "render_gauge_dict",
]

#: Quantiles a Summary renders.
SUMMARY_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)

LabelItems = Tuple[Tuple[str, str], ...]


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_str(items: LabelItems) -> str:
    if not items:
        return ""
    inner = ",".join(f'{name}="{_escape_label(value)}"' for name, value in items)
    return "{" + inner + "}"


def _items_for(labelnames: Sequence[str], labels: Dict[str, object]) -> LabelItems:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {sorted(labelnames)}, got {sorted(labels)}"
        )
    return tuple((name, str(labels[name])) for name in labelnames)


class _Metric:
    """One named metric family."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()

    def samples(self) -> List[Tuple[str, LabelItems, float]]:
        """(suffix, label items, value) rows to render."""
        raise NotImplementedError


class Counter(_Metric):
    """Monotonic counter; ``inc`` with label kwargs when labeled.

    An unlabeled counter renders 0 before its first ``inc``.
    """

    kind = "counter"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()):
        super().__init__(name, help_text)
        self.labelnames = tuple(labelnames)
        self.values: Dict[LabelItems, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        items = _items_for(self.labelnames, labels)
        with self._lock:
            self.values[items] = self.values.get(items, 0.0) + amount

    def samples(self) -> List[Tuple[str, LabelItems, float]]:
        with self._lock:
            rows = [("", items, value) for items, value in self.values.items()]
        return rows or ([] if self.labelnames else [("", (), 0.0)])


class Gauge(_Metric):
    """A gauge whose value is a callback, read at render time."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, func: Callable[[], float]):
        super().__init__(name, help_text)
        self._func = func

    def samples(self) -> List[Tuple[str, LabelItems, float]]:
        return [("", (), float(self._func()))]


class Summary(_Metric):
    """Sliding-window quantiles over the most recent ``window`` observations.

    Prometheus-style output: ``name{quantile="0.5"}`` per quantile plus
    ``name_count`` (total observations ever) and ``name_sum``.  The
    window keeps the quantiles current under sustained load instead of
    averaging over the process lifetime.
    """

    kind = "summary"

    def __init__(self, name: str, help_text: str, window: int = 1024):
        super().__init__(name, help_text)
        self._window: deque = deque(maxlen=max(1, int(window)))
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._window.append(float(value))
            self._count += 1
            self._sum += float(value)

    def quantile(self, q: float) -> float:
        """Windowed quantile by nearest-rank (NaN when empty)."""
        with self._lock:
            data = sorted(self._window)
        if not data:
            return float("nan")
        rank = min(len(data) - 1, max(0, math.ceil(q * len(data)) - 1))
        return data[rank]

    def samples(self) -> List[Tuple[str, LabelItems, float]]:
        rows: List[Tuple[str, LabelItems, float]] = [
            ("", (("quantile", str(q)),), self.quantile(q))
            for q in SUMMARY_QUANTILES
        ]
        with self._lock:
            rows.append(("_count", (), float(self._count)))
            rows.append(("_sum", (), self._sum))
        return rows


class MetricsRegistry:
    """Named metrics with one render point (the ``/metrics`` endpoint)."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(f"metric {metric.name!r} already registered")
            self._metrics[metric.name] = metric
        return metric

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        """Register a counter family."""
        return self._register(Counter(name, help_text, labelnames))  # type: ignore[return-value]

    def gauge_func(
        self, name: str, help_text: str, func: Callable[[], float]
    ) -> Gauge:
        """Register a callback-backed gauge (read at render time)."""
        return self._register(Gauge(name, help_text, func))  # type: ignore[return-value]

    def summary(self, name: str, help_text: str, window: int = 1024) -> Summary:
        """Register a sliding-window summary."""
        return self._register(Summary(name, help_text, window))  # type: ignore[return-value]

    def render(self) -> str:
        """The full Prometheus text exposition (trailing newline included)."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: List[str] = []
        for metric in metrics:
            lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for suffix, items, value in metric.samples():
                lines.append(
                    f"{metric.name}{suffix}{_label_str(items)} "
                    f"{_format_value(value)}"
                )
        return "\n".join(lines) + "\n"


def render_gauge_dict(
    name: str,
    help_text: str,
    gauges: Dict[str, float],
    extra_labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render a plain ``{gauge_name: value}`` dict as one labeled family.

    The bridge from :meth:`repro.obs.epoch.EpochSampler.latest_gauges` to
    the exposition format: every entry becomes
    ``<name>{gauge="<key>",...} value``.
    """
    lines = [f"# HELP {name} {help_text}", f"# TYPE {name} gauge"]
    base = tuple((extra_labels or {}).items())
    for key in sorted(gauges):
        items: LabelItems = (("gauge", str(key)),) + tuple(
            (k, str(v)) for k, v in base
        )
        lines.append(f"{name}{_label_str(items)} {_format_value(gauges[key])}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, Dict[LabelItems, float]]:
    """Strict parser for the exposition format; raises ValueError on junk.

    Returns ``{metric_name: {label_items: value}}`` (summary quantile and
    ``_count``/``_sum`` rows appear under their full sample name).  Used
    by tests, the load generator and the CI smoke job to assert the
    service's output actually parses.
    """
    out: Dict[str, Dict[LabelItems, float]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"line {lineno}: no sample value in {line!r}")
        try:
            value = float(value_part)
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value {value_part!r}"
            ) from None
        name_part = name_part.strip()
        labels: List[Tuple[str, str]] = []
        if "{" in name_part:
            if not name_part.endswith("}"):
                raise ValueError(f"line {lineno}: unterminated labels in {line!r}")
            name, _, label_blob = name_part.partition("{")
            label_blob = label_blob[:-1]
            if label_blob:
                for chunk in _split_labels(label_blob, lineno):
                    key, eq, raw = chunk.partition("=")
                    if not eq or not (raw.startswith('"') and raw.endswith('"')):
                        raise ValueError(
                            f"line {lineno}: malformed label {chunk!r}"
                        )
                    labels.append((key, _unescape_label(raw[1:-1])))
        else:
            name = name_part
        if not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"line {lineno}: bad metric name {name!r}")
        out.setdefault(name, {})[tuple(labels)] = value
    return out


def _split_labels(blob: str, lineno: int) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    chunks: List[str] = []
    current = []
    in_quotes = False
    escaped = False
    for char in blob:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            chunks.append("".join(current))
            current = []
            continue
        current.append(char)
    if in_quotes:
        raise ValueError(f"line {lineno}: unterminated quote in labels")
    if current:
        chunks.append("".join(current))
    return chunks


def _unescape_label(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        char = value[i]
        if char == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt in ("n", '"', "\\"):
                out.append({"n": "\n", '"': '"', "\\": "\\"}[nxt])
                i += 2
                continue
        out.append(char)
        i += 1
    return "".join(out)
