"""Timeline comparison: sparse vs. stash behaviour *over a run*, not just
at the end.

The evaluation's headline tables compare end-of-run totals; this module is
the :mod:`repro.obs` consumer that shows **when** the two designs diverge.
It runs the same workload on an under-provisioned sparse directory and on
the stash directory — both observed with an epoch sampler and an event
tracer, propagated per sweep point through the runner
(:class:`~repro.analysis.runner.SweepPoint` ``obs`` field) — then reads
the exported epoch series back and renders side-by-side time-series of the
divergence metrics:

* directory-eviction invalidation messages per epoch (the sparse
  directory's inclusion tax; near-zero for stash),
* coverage misses per epoch (the performance cost of those messages),
* directory occupancy and effective tracking (stash bits extend coverage
  past physical capacity).

The exports land next to the report (``<prefix>.<kind>.epochs.jsonl`` /
``.trace.json``), so the same run can be opened in Perfetto.
"""

from __future__ import annotations

from typing import Dict, List

from ..common.config import DirectoryKind
from ..common.errors import ConfigError
from ..obs import ObsConfig, read_epochs_jsonl
from .experiments import ExperimentOutput, make_config
from .figures import render_series, render_sparkline
from .runner import SweepPoint, run_points

#: Per-epoch delta keys the comparison tabulates (stats-tree keys).
DIVERGENCE_KEYS = (
    "system.protocol.dir_eviction_inval_msgs",
    "system.protocol.coverage_misses",
    "system.directory.evictions_invalidate",
)

#: Per-epoch gauges the comparison tabulates.
DIVERGENCE_GAUGES = ("dir_occupancy", "effective_tracking")


def _delta_series(epochs: List[Dict], key: str) -> List[float]:
    return [epoch.get("d", {}).get(key, 0.0) for epoch in epochs]


def _gauge_series(epochs: List[Dict], name: str) -> List[float]:
    return [epoch.get("g", {}).get(name, 0.0) for epoch in epochs]


def run_timeline(
    workload: str = "mix",
    ratio: float = 0.125,
    num_cores: int = 16,
    ops_per_core: int = 3000,
    seed: int = 1,
    out_prefix: str = "timeline",
    epoch_interval: int = 256,
    trace_capacity: int = 65_536,
) -> ExperimentOutput:
    """Observed sparse-vs-stash run at one provisioning ratio.

    Returns an :class:`ExperimentOutput` whose ``data`` carries the raw
    epoch series and the export paths; the text report shows the per-epoch
    divergence tables and sparklines.  An ``epoch_interval`` below 1
    would sample no epochs to compare, and raises :class:`ConfigError`
    before anything runs.
    """
    if epoch_interval < 1:
        raise ConfigError(
            f"--obs-epoch must be >= 1 for a timeline, got {epoch_interval}"
        )
    kinds = [DirectoryKind.SPARSE, DirectoryKind.STASH]
    points = [
        SweepPoint(
            workload,
            make_config(kind, ratio, num_cores=num_cores, seed=seed),
            ops_per_core=ops_per_core,
            seed=seed,
            obs=ObsConfig(
                epoch_interval=epoch_interval,
                trace_capacity=trace_capacity,
                out_prefix=f"{out_prefix}.{kind.value}",
            ),
        )
        for kind in kinds
    ]
    results = run_points(points)

    epochs_by_kind: Dict[str, List[Dict]] = {}
    for kind in kinds:
        _, epochs = read_epochs_jsonl(f"{out_prefix}.{kind.value}.epochs.jsonl")
        epochs_by_kind[kind.value] = epochs

    # Tables share an x-axis; the run lengths are identical by construction
    # (same trace), so every kind has the same epoch boundaries.
    x = [epoch["op"] for epoch in epochs_by_kind[kinds[0].value]]
    sections: List[str] = [
        f"timeline: {workload} @ R={ratio:g} "
        f"({num_cores} cores, {ops_per_core} ops/core, "
        f"epoch={epoch_interval} ops)",
        "",
    ]
    for key in DIVERGENCE_KEYS:
        short = key.rsplit(".", 1)[-1]
        series = {
            kind: _delta_series(epochs_by_kind[kind], key)
            for kind in epochs_by_kind
        }
        sections.append(
            render_series(f"{short} per epoch", "op", x, series, precision=0)
        )
        for kind, values in series.items():
            sections.append(f"  {kind:>7}  {render_sparkline(values)}")
        sections.append("")
    for name in DIVERGENCE_GAUGES:
        series = {
            kind: _gauge_series(epochs_by_kind[kind], name)
            for kind in epochs_by_kind
        }
        sections.append(render_series(name, "op", x, series, precision=0))
        sections.append("")

    totals = {
        kind: sum(_delta_series(epochs_by_kind[kind],
                                "system.protocol.dir_eviction_inval_msgs"))
        for kind in epochs_by_kind
    }
    sections.append(
        "directory-eviction invalidation messages, whole run: "
        + ", ".join(f"{kind}={int(total)}" for kind, total in totals.items())
    )
    exports = [
        f"{out_prefix}.{kind.value}{suffix}"
        for kind in kinds
        for suffix in (".epochs.jsonl", ".epochs.csv", ".trace.json")
    ]
    sections.append("exports: " + ", ".join(exports))

    return ExperimentOutput(
        experiment_id="timeline",
        title="sparse vs stash divergence timeline",
        text="\n".join(sections),
        data={
            "x": x,
            "epochs": epochs_by_kind,
            "totals": totals,
            "exports": exports,
            "cycles": {
                kind.value: sum(result.cycles_per_core)
                for kind, result in zip(kinds, results)
            },
        },
    )
