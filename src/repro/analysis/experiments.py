"""Experiment registry: one runner per table/figure in DESIGN.md.

Every benchmark in ``benchmarks/`` and most examples call into this module,
so the workload construction, configuration sweeps and metric derivations
are defined exactly once.  Each ``run_*`` function returns an
:class:`ExperimentOutput` carrying both the structured data and a rendered
text report (the "figure").

Simulation execution is delegated to :mod:`repro.analysis.runner`: results
are memoized per-process on the full parameter key (sweeps share baseline
runs instead of re-simulating them), persisted in a content-addressed disk
cache, and each ``run_*`` sweep prefetches its full point set so
independent simulations fan out across worker processes when the runner is
configured with ``workers > 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.config import (
    CacheConfig,
    DirectoryConfig,
    DirectoryKind,
    NoCConfig,
    SharerFormat,
    StashEligibility,
    SystemConfig,
)
from ..common.errors import ConfigError
from ..common.mesi import CoherenceProtocol
from ..energy.area import storage_of
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


# --------------------------------------------------------------------------- configs

def make_config(
    kind: DirectoryKind = DirectoryKind.STASH,
    ratio: float = 1.0,
    num_cores: int = 16,
    seed: int = 1,
    check_invariants: bool = False,
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
        # Optional 2x-L1 private L2 (the paper's CMP has two private levels;
        # the directory then tracks the L2).
        l2=CacheConfig(sets=64, ways=8) if private_l2 else None,
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
        check_invariants=check_invariants,
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


def prefetch(points, ops_per_core: int = DEFAULT_OPS, seed: int = 1) -> None:
    """Simulate many points up front through the (possibly parallel) runner.

    ``points`` is an iterable of ``(workload, config)`` pairs or full
    :class:`~repro.analysis.runner.SweepPoint` instances; afterwards every
    corresponding :func:`simulate` call is a memo hit.  The ``run_*``
    sweeps call this first so their serial result-assembly loops read from
    a cache populated at full worker parallelism.
    """
    runner.run_points(
        [
            p if isinstance(p, SweepPoint) else SweepPoint(p[0], p[1], ops_per_core, seed)
            for p in points
        ]
    )


def simulate_many(
    workload: str,
    config: SystemConfig,
    ops_per_core: int = DEFAULT_OPS,
    seeds: Sequence[int] = (1, 2, 3),
) -> List[SimulationResult]:
    """Run one configuration across several workload seeds (memoized)."""
    return [simulate(workload, config, ops_per_core, seed) for seed in seeds]


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
    """Accept a list, the string 'all', or None (quick subset)."""
    if workloads is None:
        return list(QUICK_WORKLOADS)
    if workloads == "all":
        return list(SUITE_ORDER)
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
    baseline = storage_of(make_config(DirectoryKind.SPARSE, 1.0, num_cores))
    # The conflict-free in-LLC embedded directory: one row (no provisioning
    # knob), showing the storage sparse directories exist to avoid.
    in_llc = storage_of(make_config(DirectoryKind.IN_LLC, 1.0, num_cores))
    rows.append(
        [
            DirectoryKind.IN_LLC.value,
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
    prefetch(
        [(n, make_config(DirectoryKind.SPARSE, r)) for n in names for r in ratios],
        ops_per_core, seed,
    )
    series: Dict[str, List[float]] = {name: [] for name in names}
    for name in names:
        for ratio in ratios:
            result = simulate(name, make_config(DirectoryKind.SPARSE, ratio), ops_per_core, seed)
            series[name].append(result.dir_induced_invals_per_kilo)
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
    prefetch(
        [(n, make_config(DirectoryKind.SPARSE, 1.0)) for n in names]
        + [
            (n, make_config(kind, ratio))
            for kind in kinds
            for ratio in (ratios[:1] if kind is DirectoryKind.IDEAL else ratios)
            for n in names
        ],
        ops_per_core, seed,
    )

    per_kind: Dict[str, List[float]] = {}
    raw: Dict[str, Dict[str, List[float]]] = {}
    for kind in kinds:
        rows: Dict[str, List[float]] = {name: [] for name in names}
        for name in names:
            baseline = simulate(name, make_config(DirectoryKind.SPARSE, 1.0), ops_per_core, seed)
            for ratio in ratios:
                if kind is DirectoryKind.IDEAL and ratio != ratios[0]:
                    # Ideal has no capacity: one point, replicated.
                    rows[name].append(rows[name][0])
                    continue
                result = simulate(name, make_config(kind, ratio), ops_per_core, seed)
                rows[name].append(result.normalized_time(baseline))
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
    names = resolve_workloads(workloads)
    prefetch(
        [
            (n, make_config(kind, ratio))
            for n in names
            for kind, ratio in (
                (DirectoryKind.SPARSE, 1.0),
                (DirectoryKind.SPARSE, 0.125),
                (DirectoryKind.STASH, 0.125),
            )
        ],
        ops_per_core, seed,
    )
    rows = []
    ratios_ok = []
    for name in names:
        sparse_full = simulate(name, make_config(DirectoryKind.SPARSE, 1.0), ops_per_core, seed)
        sparse_small = simulate(name, make_config(DirectoryKind.SPARSE, 0.125), ops_per_core, seed)
        stash_small = simulate(name, make_config(DirectoryKind.STASH, 0.125), ops_per_core, seed)
        n_sparse = sparse_small.normalized_time(sparse_full)
        n_stash = stash_small.normalized_time(sparse_full)
        ratios_ok.append(n_stash)
        rows.append([name, 1.0, n_sparse, n_stash])
    rows.append(["geomean", 1.0, geomean([r[2] for r in rows]), geomean(ratios_ok)])
    text = render_table(
        ["workload", "sparse@1x", "sparse@1/8x", "stash@1/8x"],
        rows,
        title="Headline: normalized execution time at 1/8 provisioning",
    )
    return ExperimentOutput("headline", "Headline claim", text, {"rows": rows})


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
    prefetch(
        [(n, make_config(k, r)) for k in comparison_kinds for r in ratios for n in names],
        ops_per_core, seed,
    )
    series: Dict[str, List[float]] = {}
    for kind in comparison_kinds:
        values = []
        for ratio in ratios:
            per_wl = [
                simulate(n, make_config(kind, ratio), ops_per_core, seed).dir_induced_invals_per_kilo
                for n in names
            ]
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
    prefetch(
        [(n, make_config(DirectoryKind.SPARSE, 1.0)) for n in names]
        + [(n, make_config(k, r)) for k in traffic_kinds for r in ratios for n in names]
        + [
            (n, make_config(k, 0.125))
            for k in (DirectoryKind.SPARSE, DirectoryKind.STASH)
            for n in names
        ],
        ops_per_core, seed,
    )
    series: Dict[str, List[float]] = {}
    for kind in traffic_kinds:
        values = []
        for ratio in ratios:
            normalized = []
            for name in names:
                baseline = simulate(name, make_config(DirectoryKind.SPARSE, 1.0), ops_per_core, seed)
                result = simulate(name, make_config(kind, ratio), ops_per_core, seed)
                normalized.append(result.normalized_traffic(baseline))
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
            result = simulate(name, make_config(kind, 0.125), ops_per_core, seed)
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
    prefetch(
        [(n, make_config(DirectoryKind.STASH, r)) for n in names for r in ratios],
        ops_per_core, seed,
    )
    rows = []
    data: Dict[str, object] = {}
    for name in names:
        for ratio in ratios:
            result = simulate(name, make_config(DirectoryKind.STASH, ratio), ops_per_core, seed)
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
    prefetch(
        [(n, make_config(DirectoryKind.STASH, ratio)) for n in names],
        ops_per_core, seed,
    )
    rows = []
    data: Dict[str, float] = {}
    sparklines = []
    for name in names:
        config = make_config(DirectoryKind.STASH, ratio)
        result = simulate(name, config, ops_per_core, seed)
        entries = config.directory_entries
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
    prefetch(
        [(n, make_config(DirectoryKind.SPARSE, 1.0)) for n in names]
        + [
            (n, make_config(k, ratio, dir_ways=w))
            for k in (DirectoryKind.SPARSE, DirectoryKind.STASH)
            for w in ways_list
            for n in names
        ],
        ops_per_core, seed,
    )
    series: Dict[str, List[float]] = {}
    for kind in (DirectoryKind.SPARSE, DirectoryKind.STASH):
        values = []
        for ways in ways_list:
            normalized = []
            for name in names:
                baseline = simulate(name, make_config(DirectoryKind.SPARSE, 1.0), ops_per_core, seed)
                result = simulate(
                    name, make_config(kind, ratio, dir_ways=ways), ops_per_core, seed
                )
                normalized.append(result.normalized_time(baseline))
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
    prefetch(
        [
            (n, make_config(DirectoryKind.SPARSE, 1.0, num_cores=c))
            for c in core_counts
            for n in names
        ]
        + [
            (n, make_config(k, ratio, num_cores=c))
            for k in (DirectoryKind.SPARSE, DirectoryKind.STASH)
            for c in core_counts
            for n in names
        ],
        ops_per_core, seed,
    )
    series: Dict[str, List[float]] = {}
    for kind in (DirectoryKind.SPARSE, DirectoryKind.STASH):
        values = []
        for cores in core_counts:
            normalized = []
            for name in names:
                baseline = simulate(
                    name, make_config(DirectoryKind.SPARSE, 1.0, num_cores=cores),
                    ops_per_core, seed,
                )
                result = simulate(
                    name, make_config(kind, ratio, num_cores=cores), ops_per_core, seed
                )
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
    prefetch(
        [(n, make_config(DirectoryKind.SPARSE, 1.0)) for n in names]
        + [
            (n, make_config(k, r))
            for k in (DirectoryKind.SPARSE, DirectoryKind.STASH)
            for r in ratios
            for n in names
        ],
        ops_per_core, seed,
    )
    series: Dict[str, List[float]] = {}
    for kind in (DirectoryKind.SPARSE, DirectoryKind.STASH):
        values = []
        for ratio in ratios:
            normalized = []
            for name in names:
                baseline = energy_of(
                    simulate(name, make_config(DirectoryKind.SPARSE, 1.0), ops_per_core, seed)
                )
                result = energy_of(
                    simulate(name, make_config(kind, ratio), ops_per_core, seed)
                )
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
    prefetch(
        [
            SweepPoint(n, make_config(kind, ratio, seed=s), ops_per_core, s)
            for n in names
            for s in seeds
            for kind, ratio in (
                (DirectoryKind.SPARSE, 1.0),
                (DirectoryKind.SPARSE, 0.125),
                (DirectoryKind.STASH, 0.125),
            )
        ]
    )
    rows = []
    data: Dict[str, object] = {}
    for name in names:
        stash_norms = []
        sparse_norms = []
        for seed in seeds:
            baseline = simulate(
                name, make_config(DirectoryKind.SPARSE, 1.0, seed=seed),
                ops_per_core, seed,
            )
            sparse = simulate(
                name, make_config(DirectoryKind.SPARSE, 0.125, seed=seed),
                ops_per_core, seed,
            )
            stash = simulate(
                name, make_config(DirectoryKind.STASH, 0.125, seed=seed),
                ops_per_core, seed,
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


# ---------------------------------------------------------- F11: two-level private caches

def run_private_l2_headline(
    workloads=None, ops_per_core: int = DEFAULT_OPS, seed: int = 1
) -> ExperimentOutput:
    """F11 — the headline with two-level private caches (L1 + private L2).

    The paper's CMP has private L2s with the directory tracking the L2
    level; this verifies the stash result is not an artifact of the
    single-level private-domain simplification.
    """
    names = resolve_workloads(workloads)
    prefetch(
        [
            (n, make_config(kind, ratio, private_l2=True))
            for n in names
            for kind, ratio in (
                (DirectoryKind.SPARSE, 1.0),
                (DirectoryKind.SPARSE, 0.125),
                (DirectoryKind.STASH, 0.125),
            )
        ],
        ops_per_core, seed,
    )
    rows = []
    stash_norms = []
    sparse_norms = []
    for name in names:
        baseline = simulate(
            name, make_config(DirectoryKind.SPARSE, 1.0, private_l2=True),
            ops_per_core, seed,
        )
        sparse_small = simulate(
            name, make_config(DirectoryKind.SPARSE, 0.125, private_l2=True),
            ops_per_core, seed,
        )
        stash_small = simulate(
            name, make_config(DirectoryKind.STASH, 0.125, private_l2=True),
            ops_per_core, seed,
        )
        n_sparse = sparse_small.normalized_time(baseline)
        n_stash = stash_small.normalized_time(baseline)
        sparse_norms.append(n_sparse)
        stash_norms.append(n_stash)
        rows.append([name, 1.0, n_sparse, n_stash])
    rows.append(["geomean", 1.0, geomean(sparse_norms), geomean(stash_norms)])
    text = render_table(
        ["workload", "sparse@1x", "sparse@1/8x", "stash@1/8x"],
        rows,
        title="F11: headline with private L2s (directory tracks the L2 level)",
    )
    return ExperimentOutput("F11", "Private-L2 headline", text, {"rows": rows})


# ---------------------------------------------------------------------------- ablations

def run_ablation_eligibility(
    workloads=None,
    ratio: float = 0.125,
    ops_per_core: int = DEFAULT_OPS,
    seed: int = 1,
) -> ExperimentOutput:
    """A1 — stash eligibility: any-private (paper) vs exclusive-only."""
    names = resolve_workloads(workloads)
    prefetch(
        [(n, make_config(DirectoryKind.SPARSE, 1.0)) for n in names]
        + [
            (n, make_config(DirectoryKind.STASH, ratio, eligibility=e))
            for e in (StashEligibility.ANY_PRIVATE, StashEligibility.EXCLUSIVE_ONLY)
            for n in names
        ],
        ops_per_core, seed,
    )
    rows = []
    for name in names:
        baseline = simulate(name, make_config(DirectoryKind.SPARSE, 1.0), ops_per_core, seed)
        row = [name]
        for eligibility in (StashEligibility.ANY_PRIVATE, StashEligibility.EXCLUSIVE_ONLY):
            result = simulate(
                name,
                make_config(DirectoryKind.STASH, ratio, eligibility=eligibility),
                ops_per_core, seed,
            )
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
    prefetch(
        [
            (n, make_config(DirectoryKind.STASH, ratio, clean_notification=notify))
            for notify in (False, True)
            for n in names
        ],
        ops_per_core, seed,
    )
    rows = []
    for name in names:
        silent = simulate(name, make_config(DirectoryKind.STASH, ratio), ops_per_core, seed)
        noisy = simulate(
            name,
            make_config(DirectoryKind.STASH, ratio, clean_notification=True),
            ops_per_core, seed,
        )
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
    prefetch(
        [(n, make_config(DirectoryKind.SPARSE, 1.0)) for n in names]
        + [
            (n, make_config(DirectoryKind.STASH, ratio, sharer_format=fmt))
            for fmt in SharerFormat
            for n in names
        ],
        ops_per_core, seed,
    )
    rows = []
    for fmt in SharerFormat:
        config = make_config(DirectoryKind.STASH, ratio, sharer_format=fmt)
        est = storage_of(config)
        inval_msgs = []
        times = []
        for name in names:
            baseline = simulate(name, make_config(DirectoryKind.SPARSE, 1.0), ops_per_core, seed)
            result = simulate(name, config, ops_per_core, seed)
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
