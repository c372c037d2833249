"""Experiment registry: one runner and one claim per table/figure in DESIGN.md.

The CLI, the benchmark harness and most examples call into this module,
so the workload construction, configuration sweeps and metric derivations
are defined exactly once.  Each ``run_*`` function returns an
:class:`ExperimentOutput` carrying both the structured data and a rendered
text report (the "figure").  :data:`EXPERIMENTS` maps every id, in report
order, to an :class:`Experiment`: the runner and the claim its data must
satisfy.  ``repro experiment`` and ``repro report`` run it through
:func:`run_experiment`; ``benchmarks/bench_experiments.py`` runs every
entry at benchmark scale and checks its claim.

Each sweep describes its grid once: a dict from the key its assembly reads
(workload, organization, ratio, ...) to a
:class:`~repro.analysis.runner.SweepPoint`.  The whole dict runs as one
:func:`repro.analysis.runner.run_points` batch, so independent simulations
fan out across worker processes when the runner is configured with
``workers > 1``, and the figure is assembled from the keyed results.  The
runner memoizes results per process on the full parameter key and persists
them in a content-addressed disk cache.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..common.config import (
    CacheConfig,
    DirectoryConfig,
    DirectoryKind,
    MemoryModel,
    NoCConfig,
    SharerFormat,
    StashEligibility,
    SystemConfig,
    TimingConfig,
)
from ..common.errors import ConfigError
from ..common.mesi import CoherenceProtocol
from ..common.stats import ratio as stat_ratio
from ..energy.area import embedded_storage, storage_of
from ..energy.model import energy_of
from ..sim.results import SimulationResult
from ..workloads.characterize import histogram_buckets, profile_trace
from ..workloads.suite import SUITE_ORDER, build_workload
from . import runner
from .figures import render_grouped_bars, render_series, render_sparkline
from .runner import SweepPoint
from .tables import render_kv, render_table

#: Directory provisioning ratios the paper-style sweeps use.
RATIOS: List[float] = [2.0, 1.0, 0.5, 0.25, 0.125, 0.0625]

#: Organizations compared in the performance figures.
KINDS: List[DirectoryKind] = [
    DirectoryKind.SPARSE,
    DirectoryKind.CUCKOO,
    DirectoryKind.SCD,
    DirectoryKind.STASH,
    DirectoryKind.IDEAL,
]

#: Short workload subset for quick runs; full suite via ``workloads="all"``.
QUICK_WORKLOADS: List[str] = ["blackscholes-like", "canneal-like", "mix"]

#: Default per-core trace length (kept modest: pure-Python simulation).
DEFAULT_OPS: int = 3000

#: The abstract's comparison: sparse at full and at 1/8 provisioning, and
#: stash at 1/8 (the headline, F11, S1, S2 and S3).
_HEADLINE_CONFIGS: Tuple[Tuple[DirectoryKind, float], ...] = (
    (DirectoryKind.SPARSE, 1.0),
    (DirectoryKind.SPARSE, 0.125),
    (DirectoryKind.STASH, 0.125),
)

#: The optional private L2 (2x the L1); the directory then tracks the L2.
_PRIVATE_L2 = CacheConfig(sets=64, ways=8)

#: Mesh shapes for supported core counts (to 1024 for the scaling study).
MESH_SHAPES: Dict[int, Tuple[int, int]] = {
    4: (2, 2),
    8: (4, 2),
    16: (4, 4),
    32: (8, 4),
    64: (8, 8),
    128: (16, 8),
    256: (16, 16),
    512: (32, 16),
    1024: (32, 32),
}


@dataclass
class ExperimentOutput:
    """One experiment's structured data plus its printable report."""

    experiment_id: str
    title: str
    text: str
    data: Dict[str, object] = field(default_factory=dict)

    def show(self) -> None:
        """Print the report (benchmark harness entry point)."""
        print()
        print(self.text)


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: its runner and the claim it tests.

    ``claim(out.data)`` is True when the run supports the claim its
    docstring states.  Claims are judged at benchmark scale
    (``benchmarks/bench_experiments.py``); at a few hundred ops/core the
    directory is barely pressured and some do not hold.
    """

    run: Callable[..., ExperimentOutput]
    claim: Callable[[Dict[str, object]], bool]


# --------------------------------------------------------------------------- configs

def make_config(
    kind: DirectoryKind = DirectoryKind.STASH,
    ratio: float = 1.0,
    num_cores: int = 16,
    seed: int = 1,
    dir_ways: int = 8,
    sharer_format: SharerFormat = SharerFormat.FULL_BIT_VECTOR,
    eligibility: StashEligibility = StashEligibility.ANY_PRIVATE,
    clean_notification: bool = False,
    private_l2: bool = False,
    discovery_filter_slots: int = 0,
    moesi: bool = False,
) -> SystemConfig:
    """The evaluation's default 16-core CMP, parameterized for sweeps.

    Core-count scaling keeps per-core L1 size fixed and scales the LLC and
    mesh with the core count, so provisioning ratios stay comparable.
    """
    if num_cores not in MESH_SHAPES:
        raise ConfigError(
            f"unsupported core count {num_cores}; supported: {sorted(MESH_SHAPES)}"
        )
    width, height = MESH_SHAPES[num_cores]
    llc_sets = 1024 * max(1, num_cores // 16) * 2 if num_cores > 16 else 1024
    return SystemConfig(
        num_cores=num_cores,
        l1=CacheConfig(sets=64, ways=4),
        # The paper's CMP has two private levels.
        l2=_PRIVATE_L2 if private_l2 else None,
        llc=CacheConfig(sets=llc_sets, ways=16),
        directory=DirectoryConfig(
            kind=kind,
            coverage_ratio=ratio,
            ways=dir_ways,
            sharer_format=sharer_format,
            stash_eligibility=eligibility,
            clean_eviction_notification=clean_notification,
            discovery_filter_slots=discovery_filter_slots,
        ),
        noc=NoCConfig(mesh_width=width, mesh_height=height),
        protocol=CoherenceProtocol.MOESI if moesi else CoherenceProtocol.MESI,
        seed=seed,
    )


# --------------------------------------------------------------------------- running

def simulate(
    workload: str,
    config: SystemConfig,
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> SimulationResult:
    """Run one (workload, config) pair through the sweep engine.

    ``SystemConfig`` is a frozen (hashable) dataclass, so the *entire*
    configuration keys the cache — any parameter change is a different
    run.  Lookup order: in-memory memo, persistent disk cache
    (``.repro_cache/``), then a fresh simulation.
    """
    return runner.run_points([SweepPoint(workload, config, ops_per_core, seed)])[0]


def _run_grid(points: Dict[Hashable, SweepPoint]) -> Dict[Hashable, SimulationResult]:
    """Run a sweep's points in one runner batch; results keyed like ``points``."""
    return dict(zip(points, runner.run_points(list(points.values()))))


def _headline_grid(
    names: Sequence[str],
    ops_per_core: int,
    seed: int,
    *variants: Dict[str, object],
    configs: Sequence[Tuple[DirectoryKind, float]] = _HEADLINE_CONFIGS,
) -> List[Dict[str, List[SimulationResult]]]:
    """Run ``configs`` on every workload under each variant, in one batch.

    A variant is a set of :class:`SystemConfig` field changes applied to
    :func:`make_config` (none given: the default system).  Returns, per
    variant, a dict from workload to its results in ``configs`` order.
    """
    variants = variants or ({},)
    results = _run_grid({
        (i, n, kind, ratio): SweepPoint(
            n, replace(make_config(kind, ratio), **changes), ops_per_core, seed
        )
        for i, changes in enumerate(variants)
        for n in names
        for kind, ratio in configs
    })
    return [
        {n: [results[i, n, kind, ratio] for kind, ratio in configs] for n in names}
        for i in range(len(variants))
    ]


def _headline_output(
    exp_id: str, title: str, heading: str, runs: Dict[str, List[SimulationResult]]
) -> ExperimentOutput:
    """The headline table: sparse@1/8 and stash@1/8 over sparse@1x, plus geomean."""
    rows = []
    for name, (sparse_full, sparse_small, stash_small) in runs.items():
        rows.append([
            name,
            1.0,
            sparse_small.normalized_time(sparse_full),
            stash_small.normalized_time(sparse_full),
        ])
    rows.append(["geomean", 1.0, geomean([r[2] for r in rows]), geomean([r[3] for r in rows])])
    text = render_table(
        ["workload", "sparse@1x", "sparse@1/8x", "stash@1/8x"], rows, title=heading
    )
    return ExperimentOutput(exp_id, title, text, {"rows": rows})


def mean_std(values: Sequence[float]) -> Tuple[float, float]:
    """Sample mean and (population) standard deviation."""
    if not values:
        return 0.0, 0.0
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(var)


def clear_cache() -> None:
    """Drop memoized results *and* the persistent disk cache.

    Tests use this for isolation; both layers must go, otherwise a run
    cleared from memory would silently resurrect from disk.
    """
    runner.clear_all()


def resolve_workloads(workloads) -> List[str]:
    """Accept a list, None (quick subset), 'all', or one workload name."""
    if workloads is None:
        return list(QUICK_WORKLOADS)
    if workloads == "all":
        return list(SUITE_ORDER)
    if isinstance(workloads, str):
        return [workloads]
    return list(workloads)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's cross-workload aggregate)."""
    cleaned = [v for v in values if v > 0]
    if not cleaned:
        return 0.0
    return math.exp(sum(math.log(v) for v in cleaned) / len(cleaned))


def _ratio_label(ratio: float) -> str:
    if ratio >= 1:
        return f"{ratio:g}x"
    return f"1/{round(1 / ratio):d}x"


# ----------------------------------------------------------------- T1: configuration

def run_config_table(num_cores: int = 16) -> ExperimentOutput:
    """T1 — the simulated system configuration."""
    config = make_config(num_cores=num_cores)
    text = render_kv(config.describe().items(), title="T1: system configuration")
    return ExperimentOutput("T1", "System configuration", text, {"config": config.describe()})


# ----------------------------------------------------------------- T2: storage table

def run_storage_table(num_cores: int = 16) -> ExperimentOutput:
    """T2 — directory storage per organization and provisioning ratio."""
    rows = []
    data: Dict[str, object] = {}
    baseline_config = make_config(DirectoryKind.SPARSE, 1.0, num_cores)
    baseline = storage_of(baseline_config)
    # The conflict-free in-LLC embedded directory: one row (no provisioning
    # knob), showing the storage sparse directories exist to avoid.
    in_llc = embedded_storage(baseline_config)
    rows.append(
        [
            "in_llc",
            "-",
            in_llc.entries,
            in_llc.bits_per_entry,
            in_llc.stash_bit_overhead,
            in_llc.total_kib,
            in_llc.total_bits / baseline.total_bits,
        ]
    )
    data["in_llc"] = in_llc.total_kib
    for kind in (
        DirectoryKind.SPARSE, DirectoryKind.CUCKOO, DirectoryKind.SCD,
        DirectoryKind.STASH,
    ):
        for ratio in RATIOS:
            config = make_config(kind, ratio, num_cores)
            est = storage_of(config)
            rel = est.total_bits / baseline.total_bits
            rows.append(
                [
                    kind.value,
                    _ratio_label(ratio),
                    est.entries,
                    est.bits_per_entry,
                    est.stash_bit_overhead,
                    est.total_kib,
                    rel,
                ]
            )
            data[f"{kind.value}@{ratio}"] = est.total_kib
    text = render_table(
        ["organization", "R", "entries", "bits/entry", "stash bits", "KiB", "vs sparse@1x"],
        rows,
        title=f"T2: directory storage ({num_cores} cores)",
    )
    return ExperimentOutput("T2", "Directory storage", text, data)


# ----------------------------------------------------------- F1: workload characterization

def run_characterization(
    workloads=None, num_cores: int = 16, ops_per_core: int = DEFAULT_OPS, seed: int = 1
) -> ExperimentOutput:
    """F1 — private-block fraction and sharing-degree histogram."""
    names = resolve_workloads(workloads)
    rows = []
    data: Dict[str, object] = {}
    for name in names:
        trace = build_workload(name, num_cores, ops_per_core, seed=seed)
        profile = profile_trace(trace, 64, name=name)
        buckets = histogram_buckets(profile, num_cores)
        rows.append(
            [
                name,
                profile.unique_blocks,
                profile.private_block_fraction,
                profile.private_access_fraction,
                profile.write_fraction,
            ]
            + buckets
        )
        data[name] = {
            "private_block_fraction": profile.private_block_fraction,
            "buckets": buckets,
        }
    text = render_table(
        [
            "workload", "blocks", "private frac", "private acc frac", "write frac",
            "deg=1", "deg=2", "deg=3-4", "deg=5-8", "deg>8",
        ],
        rows,
        title="F1: workload sharing characterization",
    )
    return ExperimentOutput("F1", "Workload characterization", text, data)


# ------------------------------------------------- F2: invalidations vs provisioning (sparse)

def run_invalidation_sweep(
    workloads=None,
    ratios: Optional[Sequence[float]] = None,
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """F2 — conventional sparse: invalidations/1k accesses vs. R."""
    names = resolve_workloads(workloads)
    ratios = list(ratios) if ratios is not None else RATIOS
    results = _run_grid({
        (n, r): SweepPoint(n, make_config(DirectoryKind.SPARSE, r), ops_per_core, seed)
        for n in names
        for r in ratios
    })
    series: Dict[str, List[float]] = {
        name: [results[name, r].dir_induced_invals_per_kilo for r in ratios]
        for name in names
    }
    x = [_ratio_label(r) for r in ratios]
    text = render_series(
        "F2: sparse directory-induced invalidations per 1k accesses vs provisioning",
        "R", x, series,
    )
    return ExperimentOutput("F2", "Invalidations vs provisioning", text, {"x": x, "series": series})


# --------------------------------------------------------- F3: the headline performance sweep

def run_performance_sweep(
    workloads=None,
    ratios: Optional[Sequence[float]] = None,
    kinds: Optional[Sequence[DirectoryKind]] = None,
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """F3 — normalized execution time vs. R for every organization.

    Normalization: each (workload, kind, R) run over the same workload's
    conventional sparse R=1 run; the reported series is the geometric mean
    across workloads — the paper's presentation.
    """
    names = resolve_workloads(workloads)
    ratios = list(ratios) if ratios is not None else RATIOS
    kinds = list(kinds) if kinds is not None else KINDS
    # The sparse@1x baseline first, then every plotted configuration.
    grid = [(DirectoryKind.SPARSE, 1.0)] + [
        (kind, ratio)
        for kind in kinds
        for ratio in (ratios[:1] if kind is DirectoryKind.IDEAL else ratios)
    ]
    results = _run_grid({
        (kind, ratio, n): SweepPoint(n, make_config(kind, ratio), ops_per_core, seed)
        for kind, ratio in grid
        for n in names
    })

    per_kind: Dict[str, List[float]] = {}
    raw: Dict[str, Dict[str, List[float]]] = {}
    for kind in kinds:
        rows: Dict[str, List[float]] = {name: [] for name in names}
        for name in names:
            baseline = results[DirectoryKind.SPARSE, 1.0, name]
            for ratio in ratios:
                if kind is DirectoryKind.IDEAL and ratio != ratios[0]:
                    # Ideal has no capacity: one point, replicated.
                    rows[name].append(rows[name][0])
                    continue
                rows[name].append(results[kind, ratio, name].normalized_time(baseline))
        raw[kind.value] = rows
        per_kind[kind.value] = [
            geomean([rows[name][i] for name in names]) for i in range(len(ratios))
        ]

    x = [_ratio_label(r) for r in ratios]
    text = render_series(
        "F3: normalized execution time vs provisioning (geomean, lower is better; "
        "baseline = sparse@1x)",
        "R", x, per_kind,
    )
    text += "\n\n" + render_grouped_bars(
        "F3 (bars): normalized execution time", x, per_kind
    )
    return ExperimentOutput(
        "F3", "Performance vs provisioning", text,
        {"x": x, "series": per_kind, "per_workload": raw},
    )


def run_headline(
    workloads=None, ops_per_core: int = DEFAULT_OPS, seed: int = 1
) -> ExperimentOutput:
    """The abstract's claim, directly: stash@1/8 vs sparse@1x vs sparse@1/8."""
    [runs] = _headline_grid(resolve_workloads(workloads), ops_per_core, seed)
    return _headline_output(
        "headline", "Headline claim",
        "Headline: normalized execution time at 1/8 provisioning", runs,
    )


# ------------------------------------------------- F4: invalidation comparison stash vs sparse

def run_invalidation_comparison(
    workloads=None,
    ratios: Optional[Sequence[float]] = None,
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """F4 — directory-induced invalidations: stash vs sparse vs cuckoo."""
    names = resolve_workloads(workloads)
    ratios = list(ratios) if ratios is not None else RATIOS
    comparison_kinds = (
        DirectoryKind.SPARSE, DirectoryKind.CUCKOO, DirectoryKind.SCD,
        DirectoryKind.STASH,
    )
    results = _run_grid({
        (k, r, n): SweepPoint(n, make_config(k, r), ops_per_core, seed)
        for k in comparison_kinds
        for r in ratios
        for n in names
    })
    series: Dict[str, List[float]] = {}
    for kind in comparison_kinds:
        values = []
        for ratio in ratios:
            per_wl = [results[kind, ratio, n].dir_induced_invals_per_kilo for n in names]
            values.append(sum(per_wl) / len(per_wl))
        series[kind.value] = values
    x = [_ratio_label(r) for r in ratios]
    text = render_series(
        "F4: directory-induced invalidations per 1k accesses (mean over workloads)",
        "R", x, series,
    )
    return ExperimentOutput("F4", "Invalidation comparison", text, {"x": x, "series": series})


# --------------------------------------------------------------------- F5: network traffic

def run_traffic_sweep(
    workloads=None,
    ratios: Optional[Sequence[float]] = None,
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """F5 — hop-weighted NoC traffic normalized to sparse@1x."""
    names = resolve_workloads(workloads)
    ratios = list(ratios) if ratios is not None else RATIOS
    traffic_kinds = (DirectoryKind.SPARSE, DirectoryKind.CUCKOO, DirectoryKind.STASH)
    # The sparse@1x baseline, the plotted sweep, then the R=1/8 breakdown.
    grid = (
        [(DirectoryKind.SPARSE, 1.0)]
        + [(k, r) for k in traffic_kinds for r in ratios]
        + [(k, 0.125) for k in (DirectoryKind.SPARSE, DirectoryKind.STASH)]
    )
    results = _run_grid({
        (k, r, n): SweepPoint(n, make_config(k, r), ops_per_core, seed)
        for k, r in grid
        for n in names
    })
    series: Dict[str, List[float]] = {}
    for kind in traffic_kinds:
        values = []
        for ratio in ratios:
            normalized = []
            for name in names:
                baseline = results[DirectoryKind.SPARSE, 1.0, name]
                normalized.append(results[kind, ratio, name].normalized_traffic(baseline))
            values.append(geomean(normalized))
        series[kind.value] = values
    x = [_ratio_label(r) for r in ratios]
    text = render_series(
        "F5: NoC traffic (flit-hops) vs provisioning, normalized to sparse@1x (geomean)",
        "R", x, series,
    )
    # Class breakdown at the headline point.
    breakdown_rows = []
    for kind in (DirectoryKind.SPARSE, DirectoryKind.STASH):
        for name in names:
            result = results[kind, 0.125, name]
            breakdown_rows.append(
                [
                    kind.value,
                    name,
                    result.traffic_of("request"),
                    result.traffic_of("data_response"),
                    result.traffic_of("invalidation") + result.traffic_of("inv_ack"),
                    result.traffic_of("discovery_probe") + result.traffic_of("discovery_reply"),
                    result.total_flit_hops,
                ]
            )
    text += "\n\n" + render_table(
        ["org", "workload", "req", "data", "inval", "discovery", "total"],
        breakdown_rows,
        title="F5 (detail): flit-hops by class at R=1/8",
    )
    return ExperimentOutput("F5", "Network traffic", text, {"x": x, "series": series})


# ------------------------------------------------------------------ F6: discovery statistics

def run_discovery_stats(
    workloads=None,
    ratios: Optional[Sequence[float]] = None,
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """F6 — discovery broadcasts per 1k accesses and false-discovery rate."""
    names = resolve_workloads(workloads)
    ratios = list(ratios) if ratios is not None else RATIOS
    results = _run_grid({
        (n, r): SweepPoint(n, make_config(DirectoryKind.STASH, r), ops_per_core, seed)
        for n in names
        for r in ratios
    })
    rows = []
    data: Dict[str, object] = {}
    for name in names:
        for ratio in ratios:
            result = results[name, ratio]
            rows.append(
                [
                    name,
                    _ratio_label(ratio),
                    result.discovery_per_kilo,
                    result.false_discovery_rate,
                    result.stash_evictions,
                ]
            )
            data[f"{name}@{ratio}"] = (
                result.discovery_per_kilo,
                result.false_discovery_rate,
            )
    text = render_table(
        ["workload", "R", "discoveries/1k", "false rate", "stash evictions"],
        rows,
        title="F6: discovery broadcast statistics (stash directory)",
    )
    return ExperimentOutput("F6", "Discovery statistics", text, data)


# ------------------------------------------------------------------ F7: effective capacity

def run_effective_capacity(
    workloads=None,
    ratio: float = 0.125,
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """F7 — effective tracking capacity (entries + live stash bits)."""
    names = resolve_workloads(workloads)
    config = make_config(DirectoryKind.STASH, ratio)
    results = _run_grid({n: SweepPoint(n, config, ops_per_core, seed) for n in names})
    entries = config.directory_entries
    rows = []
    data: Dict[str, float] = {}
    sparklines = []
    for name in names:
        result = results[name]
        samples = result.effective_tracking_samples or [0]
        avg_effective = sum(samples) / len(samples)
        expansion = avg_effective / entries if entries else 0.0
        rows.append([name, entries, avg_effective, expansion])
        data[name] = expansion
        sparklines.append(f"{name:>20s} |{render_sparkline(samples, width=40)}|")
    text = render_table(
        ["workload", "physical entries", "avg effective", "expansion"],
        rows,
        title=f"F7: effective directory capacity at R={_ratio_label(ratio)}",
    )
    text += (
        "\n\neffective tracking over time (sampled):\n" + "\n".join(sparklines)
    )
    return ExperimentOutput("F7", "Effective capacity", text, data)


# --------------------------------------------------------------- F8: associativity sensitivity

def run_assoc_sensitivity(
    workloads=None,
    ways_list: Sequence[int] = (2, 4, 8, 16),
    ratio: float = 0.125,
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """F8 — directory associativity sweep at fixed provisioning."""
    names = resolve_workloads(workloads)
    base_config = make_config(DirectoryKind.SPARSE, 1.0)
    points = {("baseline", n): SweepPoint(n, base_config, ops_per_core, seed) for n in names}
    points.update(
        ((k, w, n), SweepPoint(n, make_config(k, ratio, dir_ways=w), ops_per_core, seed))
        for k in (DirectoryKind.SPARSE, DirectoryKind.STASH)
        for w in ways_list
        for n in names
    )
    results = _run_grid(points)
    series: Dict[str, List[float]] = {}
    for kind in (DirectoryKind.SPARSE, DirectoryKind.STASH):
        values = []
        for ways in ways_list:
            normalized = [
                results[kind, ways, name].normalized_time(results["baseline", name])
                for name in names
            ]
            values.append(geomean(normalized))
        series[kind.value] = values
    x = [f"{w}-way" for w in ways_list]
    text = render_series(
        f"F8: normalized execution time vs directory associativity at R={_ratio_label(ratio)}",
        "assoc", x, series,
    )
    return ExperimentOutput("F8", "Associativity sensitivity", text, {"x": x, "series": series})


# ------------------------------------------------------------------------ F9: core scaling

def run_core_scaling(
    workloads=None,
    core_counts: Sequence[int] = (16, 32, 64),
    ratio: float = 0.125,
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """F9 — stash vs sparse at R=1/8 as the core count grows."""
    names = resolve_workloads(workloads)
    # Each core count's sparse@1x baselines first, then both organizations.
    grid = [(DirectoryKind.SPARSE, 1.0, c) for c in core_counts] + [
        (k, ratio, c)
        for k in (DirectoryKind.SPARSE, DirectoryKind.STASH)
        for c in core_counts
    ]
    results = _run_grid({
        (k, r, c, n): SweepPoint(n, make_config(k, r, num_cores=c), ops_per_core, seed)
        for k, r, c in grid
        for n in names
    })
    series: Dict[str, List[float]] = {}
    for kind in (DirectoryKind.SPARSE, DirectoryKind.STASH):
        values = []
        for cores in core_counts:
            normalized = []
            for name in names:
                baseline = results[DirectoryKind.SPARSE, 1.0, cores, name]
                result = results[kind, ratio, cores, name]
                normalized.append(result.normalized_time(baseline))
            values.append(geomean(normalized))
        series[kind.value] = values
    x = [f"{c} cores" for c in core_counts]
    text = render_series(
        f"F9: normalized execution time at R={_ratio_label(ratio)} vs core count",
        "cores", x, series,
    )
    return ExperimentOutput("F9", "Core-count scaling", text, {"x": x, "series": series})


# ---------------------------------------------------------------------------- F10: energy

def run_energy_comparison(
    workloads=None,
    ratios: Optional[Sequence[float]] = None,
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """F10 — total (dynamic + directory leakage) energy vs sparse@1x."""
    names = resolve_workloads(workloads)
    ratios = list(ratios) if ratios is not None else [1.0, 0.5, 0.25, 0.125]
    grid = [(DirectoryKind.SPARSE, 1.0)] + [
        (k, r) for k in (DirectoryKind.SPARSE, DirectoryKind.STASH) for r in ratios
    ]
    results = _run_grid({
        (k, r, n): SweepPoint(n, make_config(k, r), ops_per_core, seed)
        for k, r in grid
        for n in names
    })
    series: Dict[str, List[float]] = {}
    for kind in (DirectoryKind.SPARSE, DirectoryKind.STASH):
        values = []
        for ratio in ratios:
            normalized = []
            for name in names:
                baseline = energy_of(results[DirectoryKind.SPARSE, 1.0, name])
                result = energy_of(results[kind, ratio, name])
                normalized.append(result.normalized_to(baseline))
            values.append(geomean(normalized))
        series[kind.value] = values
    x = [_ratio_label(r) for r in ratios]
    text = render_series(
        "F10: total energy (dynamic + directory leakage) normalized to sparse@1x",
        "R", x, series,
    )
    return ExperimentOutput("F10", "Energy comparison", text, {"x": x, "series": series})


# ------------------------------------------------------------- S3: seed stability

def run_seed_stability(
    workloads=None,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    ops_per_core: int = DEFAULT_OPS,
) -> ExperimentOutput:
    """S3 — statistical robustness: the headline across workload seeds.

    Synthetic traces are stochastic; this reports the normalized-time mean
    and standard deviation of stash@1/8 (and sparse@1/8) over independent
    seeds, demonstrating the headline is not a single-draw artifact.
    """
    names = resolve_workloads(workloads)
    results = _run_grid({
        (n, s, kind, ratio): SweepPoint(n, make_config(kind, ratio, seed=s), ops_per_core, s)
        for n in names
        for s in seeds
        for kind, ratio in _HEADLINE_CONFIGS
    })
    rows = []
    data: Dict[str, object] = {}
    for name in names:
        stash_norms = []
        sparse_norms = []
        for seed in seeds:
            baseline, sparse, stash = (
                results[name, seed, kind, ratio] for kind, ratio in _HEADLINE_CONFIGS
            )
            sparse_norms.append(sparse.normalized_time(baseline))
            stash_norms.append(stash.normalized_time(baseline))
        sp_mean, sp_std = mean_std(sparse_norms)
        st_mean, st_std = mean_std(stash_norms)
        rows.append([name, len(seeds), sp_mean, sp_std, st_mean, st_std])
        data[name] = {"sparse": (sp_mean, sp_std), "stash": (st_mean, st_std)}
    text = render_table(
        ["workload", "seeds", "sparse@1/8 mean", "std", "stash@1/8 mean", "std "],
        rows,
        title="S3: headline stability across workload seeds",
    )
    return ExperimentOutput("S3", "Seed stability", text, data)


# ------------------------------------------------ S1, S2, S4: headline sensitivity

def run_dram_sensitivity(
    workloads=None, ops_per_core: int = DEFAULT_OPS, seed: int = 1
) -> ExperimentOutput:
    """S1 — the headline under the banked open-page DRAM model.

    Coverage-miss refetches have poor row locality, so if anything the
    under-provisioned conventional design pays more per miss.
    """
    names = resolve_workloads(workloads)
    [runs] = _headline_grid(
        names, ops_per_core, seed, {"memory_model": MemoryModel.DRAM}
    )
    rows = []
    for name in names:
        baseline, sparse, stash = runs[name]
        rows.append([
            name,
            sparse.normalized_time(baseline),
            stash.normalized_time(baseline),
            baseline.stats.get("system.memory.row_hits", 0.0)
            / max(1.0, baseline.memory_reads),
        ])
    rows.append(
        ["geomean", geomean([r[1] for r in rows]), geomean([r[2] for r in rows]), float("nan")]
    )
    text = render_table(
        ["workload", "sparse@1/8x", "stash@1/8x", "baseline row-hit rate"],
        rows,
        title="S1: headline under the banked open-page DRAM model",
    )
    return ExperimentOutput("S1", "DRAM sensitivity", text, {"rows": rows})


def run_contention_sensitivity(
    workloads=None, ops_per_core: int = DEFAULT_OPS, seed: int = 1
) -> ExperimentOutput:
    """S2 — the headline with home-bank contention.

    Every request occupies its home bank for 8 cycles.  The
    under-provisioned conventional design sends more home traffic
    (invalidation rounds and refetches), so contention should widen the gap.
    """
    names = resolve_workloads(workloads)
    occupancy = 8
    [runs] = _headline_grid(
        names, ops_per_core, seed, {"timing": TimingConfig(home_occupancy=occupancy)}
    )
    wait = "system.protocol.home_bank_wait_cycles"
    rows = []
    for name in names:
        baseline, sparse, stash = runs[name]
        rows.append([
            name,
            sparse.normalized_time(baseline),
            stash.normalized_time(baseline),
            sparse.stats.get(wait, 0.0),
            stash.stats.get(wait, 0.0),
        ])
    rows.append([
        "geomean",
        geomean([r[1] for r in rows]),
        geomean([r[2] for r in rows]),
        float("nan"),
        float("nan"),
    ])
    text = render_table(
        ["workload", "sparse@1/8x", "stash@1/8x", "wait cyc (sparse)", "wait cyc (stash)"],
        rows,
        title=f"S2: headline with home-bank contention (occupancy {occupancy} cyc)",
    )
    return ExperimentOutput("S2", "Contention sensitivity", text, {"rows": rows})


def run_moesi_sensitivity(
    workloads=("fluidanimate-like", "barnes-like", "mix"),
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """S4 — stash@1/8 under MESI and MOESI, on dirty-sharing workloads.

    MOESI's Owned state removes the LLC writeback on dirty read-sharing
    (the owner services readers).
    """
    names = resolve_workloads(workloads)
    protocols = _headline_grid(
        names, ops_per_core, seed,
        {}, {"protocol": CoherenceProtocol.MOESI},
        configs=((DirectoryKind.SPARSE, 1.0), (DirectoryKind.STASH, 0.125)),
    )
    rows = []
    for name in names:
        row = [name]
        for runs in protocols:
            baseline, stash = runs[name]
            row.extend([stash.normalized_time(baseline), stash.traffic_of("writeback")])
        rows.append(row)
    rows.append(
        ["geomean", geomean([r[1] for r in rows]), float("nan"),
         geomean([r[3] for r in rows]), float("nan")]
    )
    text = render_table(
        ["workload", "stash@1/8 (MESI)", "wb flit-hops",
         "stash@1/8 (MOESI)", "wb flit-hops "],
        rows,
        title="S4: MESI vs MOESI under the stash directory",
    )
    return ExperimentOutput("S4", "MOESI sensitivity", text, {"rows": rows})


# ---------------------------------------------------------- F11: two-level private caches

def run_private_l2_headline(
    workloads=None, ops_per_core: int = DEFAULT_OPS, seed: int = 1
) -> ExperimentOutput:
    """F11 — the headline with two-level private caches (L1 + private L2).

    The paper's CMP has private L2s with the directory tracking the L2
    level; this verifies the stash result is not an artifact of the
    single-level private-domain simplification.
    """
    [runs] = _headline_grid(
        resolve_workloads(workloads), ops_per_core, seed, {"l2": _PRIVATE_L2}
    )
    return _headline_output(
        "F11", "Private-L2 headline",
        "F11: headline with private L2s (directory tracks the L2 level)", runs,
    )


# ---------------------------------------------------------------------------- ablations

def run_ablation_eligibility(
    workloads=None,
    ratio: float = 0.125,
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """A1 — stash eligibility: any-private (paper) vs exclusive-only."""
    names = resolve_workloads(workloads)
    eligibilities = (StashEligibility.ANY_PRIVATE, StashEligibility.EXCLUSIVE_ONLY)
    base_config = make_config(DirectoryKind.SPARSE, 1.0)
    points = {("baseline", n): SweepPoint(n, base_config, ops_per_core, seed) for n in names}
    points.update(
        ((e, n), SweepPoint(
            n, make_config(DirectoryKind.STASH, ratio, eligibility=e), ops_per_core, seed
        ))
        for e in eligibilities
        for n in names
    )
    results = _run_grid(points)
    rows = []
    for name in names:
        baseline = results["baseline", name]
        row = [name]
        for eligibility in eligibilities:
            result = results[eligibility, name]
            row.extend([result.normalized_time(baseline), result.stash_evictions])
        rows.append(row)
    text = render_table(
        ["workload", "any-private time", "stashes", "excl-only time", "stashes "],
        rows,
        title=f"A1: stash eligibility ablation at R={_ratio_label(ratio)}",
    )
    return ExperimentOutput("A1", "Eligibility ablation", text, {"rows": rows})


def run_ablation_notification(
    workloads=None,
    ratio: float = 0.125,
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """A2 — explicit clean-eviction notification vs silent evictions."""
    names = resolve_workloads(workloads)
    results = _run_grid({
        (notify, n): SweepPoint(
            n, make_config(DirectoryKind.STASH, ratio, clean_notification=notify),
            ops_per_core, seed,
        )
        for notify in (False, True)
        for n in names
    })
    rows = []
    for name in names:
        silent, noisy = results[False, name], results[True, name]
        rows.append(
            [
                name,
                silent.false_discovery_rate,
                noisy.false_discovery_rate,
                silent.total_flit_hops,
                noisy.total_flit_hops,
            ]
        )
    text = render_table(
        ["workload", "false rate (silent)", "false rate (notify)",
         "traffic (silent)", "traffic (notify)"],
        rows,
        title=f"A2: clean-eviction notification ablation at R={_ratio_label(ratio)}",
    )
    return ExperimentOutput("A2", "Notification ablation", text, {"rows": rows})


def run_ablation_sharers(
    workloads=None,
    ratio: float = 0.25,
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """A3 — sharer representation: storage vs invalidation traffic."""
    names = resolve_workloads(workloads)
    configs = {
        fmt: make_config(DirectoryKind.STASH, ratio, sharer_format=fmt)
        for fmt in SharerFormat
    }
    base_config = make_config(DirectoryKind.SPARSE, 1.0)
    points = {("baseline", n): SweepPoint(n, base_config, ops_per_core, seed) for n in names}
    points.update(
        ((fmt, n), SweepPoint(n, config, ops_per_core, seed))
        for fmt, config in configs.items()
        for n in names
    )
    results = _run_grid(points)
    rows = []
    for fmt, config in configs.items():
        est = storage_of(config)
        inval_msgs = []
        times = []
        for name in names:
            baseline = results["baseline", name]
            result = results[fmt, name]
            msgs = result.stats.get("system.protocol.write_inval_msgs", 0.0) + result.stats.get(
                "system.protocol.dir_eviction_inval_msgs", 0.0
            )
            inval_msgs.append(msgs)
            times.append(result.normalized_time(baseline))
        rows.append(
            [
                fmt.value,
                est.bits_per_entry,
                est.total_kib,
                sum(inval_msgs) / len(inval_msgs),
                geomean(times),
            ]
        )
    text = render_table(
        ["format", "bits/entry", "KiB", "inval msgs (mean)", "norm. time (geomean)"],
        rows,
        title=f"A3: sharer-format ablation (stash at R={_ratio_label(ratio)})",
    )
    return ExperimentOutput("A3", "Sharer-format ablation", text, {"rows": rows})


def run_ablation_adaptive(
    workloads=("blackscholes-like", "swaptions-like", "ocean-like", "radix-like", "mix"),
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """A4 — adaptive stash throttling vs always-stash, at R=1/8.

    Throttling suspends stashing while discovery broadcasts keep missing.
    The default workloads: good reuse (blackscholes), a tiny working set
    (swaptions), two streaming ones with stale stash bits everywhere
    (ocean, radix), and the mix.
    """
    names = resolve_workloads(workloads)
    [runs] = _headline_grid(
        names, ops_per_core, seed,
        configs=(
            (DirectoryKind.SPARSE, 1.0),
            (DirectoryKind.STASH, 0.125),
            (DirectoryKind.ADAPTIVE_STASH, 0.125),
        ),
    )
    rows = []
    for name in names:
        baseline, plain, adaptive = runs[name]
        rows.append([
            name,
            plain.normalized_time(baseline),
            adaptive.normalized_time(baseline),
            plain.discovery_broadcasts,
            adaptive.discovery_broadcasts,
            adaptive.stats.get("system.directory.throttle_suspensions", 0.0),
        ])
    text = render_table(
        ["workload", "stash time", "adaptive time",
         "stash broadcasts", "adaptive broadcasts", "suspensions"],
        rows,
        title="A4: adaptive stash throttling at R=1/8x",
    )
    return ExperimentOutput("A4", "Adaptive stash throttling", text, {"rows": rows})


def run_ablation_filter(
    workloads=("blackscholes-like", "bodytrack-like", "canneal-like", "ocean-like", "mix"),
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """A5 — discovery presence filtering vs full broadcast, at R=1/8.

    Per-core counting presence filters (256 slots) at the home let a
    discovery probe only the cores that might hold the block.  Silent
    clean evictions leave stale counts, so the filter degrades toward
    broadcast on streaming workloads; clean-eviction notifications (A2)
    keep it precise.
    """
    names = resolve_workloads(workloads)
    slots = 256
    configs = (
        make_config(DirectoryKind.STASH, 0.125),
        make_config(DirectoryKind.STASH, 0.125, discovery_filter_slots=slots),
        make_config(
            DirectoryKind.STASH, 0.125,
            discovery_filter_slots=slots, clean_notification=True,
        ),
    )
    results = _run_grid({
        (i, n): SweepPoint(n, config, ops_per_core, seed)
        for n in names
        for i, config in enumerate(configs)
    })
    rows = []
    for name in names:
        plain, filtered, notified = (
            results[i, name].stats.get("system.discovery.probes_sent", 0.0)
            for i in range(len(configs))
        )
        rows.append([
            name,
            plain,
            filtered,
            1.0 - stat_ratio(filtered, plain, default=1.0),
            notified,
            1.0 - stat_ratio(notified, plain, default=1.0),
        ])
    text = render_table(
        ["workload", "probes (bcast)", "probes (filter)", "cut",
         "probes (filter+notify)", "cut "],
        rows,
        title=f"A5: discovery presence filter ({slots} slots/core) at R=1/8x",
    )
    return ExperimentOutput("A5", "Discovery filtering", text, {"rows": rows})


# ---------------------------------------------------------------------------- claims
#
# One predicate per experiment over its ``out.data``.  Claims read series
# by x label ("1x", "1/8x"), and A4 and A5 read rows by the names of
# their default workloads, so a run must include those.

def _at(data, label: str) -> Dict[str, float]:
    """Every series' value at one x label (e.g. "1/8x")."""
    i = data["x"].index(label)
    return {name: values[i] for name, values in data["series"].items()}


def _by_name(data) -> Dict[str, list]:
    return {row[0]: row for row in data["rows"]}


def _t1_claim(data) -> bool:
    """The evaluated system has 16 cores."""
    return data["config"]["cores"] == "16"


def _t2_claim(data) -> bool:
    """Stash@1/8, stash bits included, stores under 0.3x of sparse@1x."""
    return data["stash@0.125"] < 0.3 * data["sparse@1.0"]


def _f1_claim(data) -> bool:
    """Most blocks are private in all but at most two workloads."""
    fractions = [wl["private_block_fraction"] for wl in data.values()]
    return sum(f > 0.5 for f in fractions) >= len(fractions) - 2


def _f2_claim(data) -> bool:
    """Sparse's directory-induced invalidations grow as R shrinks, on every workload."""
    return all(series[-1] > series[0] for series in data["series"].values())


def _f3_claim(data) -> bool:
    """Stash@1/8 is within 5% of sparse@1x; only ideal beats it at 1/8,
    and cuckoo is no worse than sparse (ties it at 1/8, where both are
    capacity-bound)."""
    one, eighth = _at(data, "1x"), _at(data, "1/8x")
    return (
        eighth["ideal"] <= eighth["stash"] + 0.02
        and eighth["stash"] < eighth["cuckoo"]
        and one["cuckoo"] <= one["sparse"]
        and eighth["cuckoo"] <= 1.02 * eighth["sparse"]
        and eighth["stash"] < 1.05
    )


def _headline_claim(data) -> bool:
    """Stash@1/8 is within 5% of sparse@1x (geomean); sparse@1/8 is worse."""
    geomean_row = data["rows"][-1]
    return geomean_row[3] < 1.05 and geomean_row[2] > geomean_row[3]


def _f4_claim(data) -> bool:
    """Stash's invalidations at 1/8 are under a quarter of sparse's."""
    eighth = _at(data, "1/8x")
    return eighth["stash"] < 0.25 * eighth["sparse"]


def _f5_claim(data) -> bool:
    """Stash@1/8 traffic is below sparse@1/8's, and its excess over
    sparse@1x is smaller than what it saves against sparse@1/8."""
    eighth = _at(data, "1/8x")
    stash, sparse = eighth["stash"], eighth["sparse"]
    return stash < sparse and stash - 1 < sparse - stash


def _f6_claim(data) -> bool:
    """At R=1/8, under half of all discovery broadcasts are false (each
    workload's false rate weighted by its discoveries/1k)."""
    eighth = [v for key, v in data.items() if key.endswith("@0.125")]
    false = sum(per_kilo * rate for per_kilo, rate in eighth)
    return false < 0.5 * sum(per_kilo for per_kilo, _ in eighth)


def _f7_claim(data) -> bool:
    """Tracked blocks exceed the physical entries by over 1.5x on average."""
    expansions = list(data.values())
    return sum(expansions) / len(expansions) > 1.5


def _f8_claim(data) -> bool:
    """Stash beats sparse at every associativity and spreads under 0.15."""
    series = data["series"]
    return (
        all(s <= c for s, c in zip(series["stash"], series["sparse"]))
        and max(series["stash"]) - min(series["stash"]) < 0.15
    )


def _f9_claim(data) -> bool:
    """Stash@1/8 beats sparse@1/8 at every core count."""
    series = data["series"]
    return all(st < sp for st, sp in zip(series["stash"], series["sparse"]))


def _f10_claim(data) -> bool:
    """Stash@1/8 energy is within 10% of sparse@1x and below sparse@1/8's."""
    eighth = _at(data, "1/8x")
    return eighth["stash"] <= 1.10 and eighth["stash"] < eighth["sparse"]


def _f11_claim(data) -> bool:
    """With private L2s, stash@1/8 is within 8% of sparse@1x; sparse@1/8 is worse."""
    geomean_row = data["rows"][-1]
    return (
        geomean_row[0] == "geomean"
        and geomean_row[3] < 1.08
        and geomean_row[2] > geomean_row[3]
    )


def _a1_claim(data) -> bool:
    """Any-private eligibility is at least as fast as exclusive-only, summed."""
    rows = data["rows"]
    return sum(row[1] for row in rows) <= sum(row[3] for row in rows) * 1.02


def _a2_claim(data) -> bool:
    """Notifications drive false discoveries to zero."""
    return all(
        false_notify == 0.0 and false_silent >= false_notify
        for _, false_silent, false_notify, _, _ in data["rows"]
    )


def _a3_claim(data) -> bool:
    """Coarse vectors shrink the entry at 16 cores; no format costs 1.5x."""
    rows = _by_name(data)
    return (
        rows["coarse"][1] < rows["full"][1]
        and all(row[4] < 1.5 for row in data["rows"])
    )


def _a4_claim(data) -> bool:
    """Throttling never adds broadcasts, cuts them on streaming workloads,
    and stays within 0.10 of plain stash on blackscholes (the false rate
    alone is an imperfect throttle signal)."""
    rows = data["rows"]
    by_name = _by_name(data)
    return (
        all(row[4] <= row[3] for row in rows)
        and by_name["ocean-like"][4] < by_name["ocean-like"][3]
        and by_name["radix-like"][4] < 0.7 * by_name["radix-like"][3]
        and by_name["blackscholes-like"][2] < by_name["blackscholes-like"][1] + 0.10
    )


def _a5_claim(data) -> bool:
    """The filter never adds probes; with notifications it cuts them by
    over half wherever discovery happens; alone it cuts mix's by over 30%
    but ocean's by less (stale counts)."""
    rows = data["rows"]
    discovering = [row for row in rows if row[1] > 0]
    by_name = _by_name(data)
    return (
        all(row[2] <= row[1] for row in rows)
        and bool(discovering)
        and all(row[5] > 0.5 for row in discovering)
        and by_name["mix"][3] > 0.3
        and by_name["ocean-like"][3] < by_name["mix"][3]
    )


def _s1_claim(data) -> bool:
    """Under DRAM timing stash@1/8 stays within 10% of sparse@1x; sparse@1/8 is worse."""
    geomean_row = data["rows"][-1]
    return geomean_row[2] < 1.10 and geomean_row[1] > geomean_row[2]


def _s2_claim(data) -> bool:
    """Under home-bank contention stash@1/8 stays within 10% of sparse@1x,
    sparse@1/8 is worse and queues more at the home."""
    geomean_row = data["rows"][-1]
    per_workload = data["rows"][:-1]
    return (
        geomean_row[2] < 1.10
        and geomean_row[1] > geomean_row[2]
        and sum(r[3] for r in per_workload) > sum(r[4] for r in per_workload)
    )


def _s3_claim(data) -> bool:
    """On every workload stash@1/8 averages under 1.10 with std under 0.05,
    and where sparse@1/8 averages over 1.15 the means differ by more
    than the two stds."""
    for stats in data.values():
        sparse_mean, sparse_std = stats["sparse"]
        stash_mean, stash_std = stats["stash"]
        separated = not sparse_mean > 1.15 or (
            sparse_mean - stash_mean > sparse_std + stash_std
        )
        if not (separated and stash_mean < 1.10 and stash_std < 0.05):
            return False
    return True


def _s4_claim(data) -> bool:
    """Stash@1/8 is within 10% of sparse@1x under MESI and MOESI, and
    MOESI cuts writeback traffic."""
    geomean_row = data["rows"][-1]
    per_workload = data["rows"][:-1]
    return (
        geomean_row[1] < 1.10
        and geomean_row[3] < 1.10
        and sum(r[4] for r in per_workload) < sum(r[2] for r in per_workload)
    )


# ---------------------------------------------------------------------------- registry

#: Every experiment by id, in report order.
EXPERIMENTS: Dict[str, Experiment] = {
    "T1": Experiment(run_config_table, _t1_claim),
    "T2": Experiment(run_storage_table, _t2_claim),
    "F1": Experiment(run_characterization, _f1_claim),
    "F2": Experiment(run_invalidation_sweep, _f2_claim),
    "F3": Experiment(run_performance_sweep, _f3_claim),
    "headline": Experiment(run_headline, _headline_claim),
    "F4": Experiment(run_invalidation_comparison, _f4_claim),
    "F5": Experiment(run_traffic_sweep, _f5_claim),
    "F6": Experiment(run_discovery_stats, _f6_claim),
    "F7": Experiment(run_effective_capacity, _f7_claim),
    "F8": Experiment(run_assoc_sensitivity, _f8_claim),
    "F9": Experiment(run_core_scaling, _f9_claim),
    "F10": Experiment(run_energy_comparison, _f10_claim),
    "F11": Experiment(run_private_l2_headline, _f11_claim),
    "A1": Experiment(run_ablation_eligibility, _a1_claim),
    "A2": Experiment(run_ablation_notification, _a2_claim),
    "A3": Experiment(run_ablation_sharers, _a3_claim),
    "A4": Experiment(run_ablation_adaptive, _a4_claim),
    "A5": Experiment(run_ablation_filter, _a5_claim),
    "S1": Experiment(run_dram_sensitivity, _s1_claim),
    "S2": Experiment(run_contention_sensitivity, _s2_claim),
    "S3": Experiment(run_seed_stability, _s3_claim),
    "S4": Experiment(run_moesi_sensitivity, _s4_claim),
}


def run_experiment(
    exp_id: str, workloads=None, ops_per_core: Optional[int] = None
) -> ExperimentOutput:
    """Run one registered experiment at its defaults or the given scale.

    The runner gets ``workloads`` or ``ops_per_core`` only when the value
    is given and its parameters accept it; T1 and T2 take neither.
    """
    run = EXPERIMENTS[exp_id].run
    accepted = inspect.signature(run).parameters
    given = {"workloads": workloads, "ops_per_core": ops_per_core}
    return run(**{
        name: value
        for name, value in given.items()
        if value is not None and name in accepted
    })
