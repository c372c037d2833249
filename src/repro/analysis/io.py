"""Result serialization: save, load and diff simulation results.

Long sweeps are expensive in pure Python, so results are first-class
artifacts: ``save_result`` writes one run (config + cycles + the flattened
statistics tree) as JSON, ``load_result`` reconstructs the
:class:`~repro.sim.results.SimulationResult` — including the full typed
:class:`~repro.common.config.SystemConfig` — and ``compare_results``
renders a side-by-side metric table for any number of runs.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from pathlib import Path
from typing import Dict, Type, TypeVar, Union

from ..common.config import (
    CacheConfig,
    DirectoryConfig,
    DirectoryKind,
    DramConfig,
    EnergyConfig,
    MemoryModel,
    NoCConfig,
    SharerFormat,
    StashEligibility,
    SystemConfig,
    TimingConfig,
)
from ..common.errors import ConfigError, TraceError
from ..common.mesi import CoherenceProtocol
from ..directory.sharers import HIER_POINTERS
from ..sim.results import SimulationResult
from .tables import render_table

#: Format marker written into every result file.
FORMAT_VERSION = 1

E = TypeVar("E", bound=Enum)


def _encode(value):
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return {k: _encode(v) for k, v in dataclasses.asdict(value).items()}
    return value


def config_to_dict(config: SystemConfig) -> Dict:
    """Serialize a SystemConfig to plain JSON-able types."""
    raw = dataclasses.asdict(config)
    return json.loads(json.dumps(raw, default=lambda v: v.value if isinstance(v, Enum) else v))


def _cache_from_dict(data: Dict) -> CacheConfig:
    """A CacheConfig; drops the ``"replacement": "lru"`` of older files.

    Every cache is LRU, so any other saved policy names a machine this
    code cannot rebuild.
    """
    fields = dict(data)
    policy = fields.pop("replacement", "lru")
    if policy != "lru":
        raise ConfigError(f"replacement policy {policy!r} is gone; every cache is LRU")
    return CacheConfig(**fields)


def _timing_from_dict(data: Dict) -> TimingConfig:
    """A TimingConfig; reads the float ``core_fixed_cpi`` of older files.

    The CPI is an int cycle count like every other latency.  Files saved
    while it was a float carry ``1.0``: an integral value becomes its
    int, and a fractional one is rejected like any non-int cycle count.
    """
    fields = dict(data)
    cpi = fields.get("core_fixed_cpi")
    if isinstance(cpi, float) and cpi.is_integer():
        fields["core_fixed_cpi"] = int(cpi)
    return TimingConfig(**fields)


#: Hierarchical-format knobs of older files, with the values every system
#: now uses (``DirectoryConfig`` no longer has them).
_FIXED_HIER_FIELDS = {"hier_cluster": 0, "hier_pointers": HIER_POINTERS}


def _enum_from(cls: Type[E], value: object, what: str) -> E:
    """``cls(value)``; a value ``cls`` does not define is a ConfigError."""
    try:
        return cls(value)
    except ValueError:
        known = ", ".join(member.value for member in cls)
        raise ConfigError(f"unknown {what} {value!r} (known: {known})") from None


def _directory_from_dict(data: Dict) -> DirectoryConfig:
    """A DirectoryConfig; drops the fixed hierarchical knobs of older files.

    Files saved while the hierarchical format had knobs carry
    ``"hier_cluster": 0, "hier_pointers": 2``, the values every system
    uses.  Any other value names a machine this code cannot rebuild, and
    so does the ``in_llc`` kind of older files.
    """
    fields = dict(data)
    for name, fixed in _FIXED_HIER_FIELDS.items():
        value = fields.pop(name, fixed)
        if value != fixed:
            raise ConfigError(
                f"{name}={value!r} is gone; the hierarchical format always "
                f"uses {name}={fixed}"
            )
    if fields["kind"] == "in_llc":
        raise ConfigError(
            "directory kind 'in_llc' is gone; it simulated exactly as 'ideal'"
        )
    fields["kind"] = _enum_from(DirectoryKind, fields["kind"], "directory kind")
    fields["sharer_format"] = _enum_from(
        SharerFormat, fields["sharer_format"], "sharer format"
    )
    fields["stash_eligibility"] = _enum_from(
        StashEligibility, fields["stash_eligibility"], "stash eligibility"
    )
    return DirectoryConfig(**fields)


def config_from_dict(data: Dict) -> SystemConfig:
    """Reconstruct a typed SystemConfig from :func:`config_to_dict` output.

    Older files also carry ``check_invariants``; it never changed a
    result, and is ignored.
    """
    l2 = data.get("l2")
    return SystemConfig(
        num_cores=data["num_cores"],
        l1=_cache_from_dict(data["l1"]),
        l2=_cache_from_dict(l2) if l2 is not None else None,
        llc=_cache_from_dict(data["llc"]),
        directory=_directory_from_dict(data["directory"]),
        noc=NoCConfig(**data["noc"]),
        timing=_timing_from_dict(data["timing"]),
        energy=EnergyConfig(**data["energy"]),
        memory_model=_enum_from(MemoryModel, data["memory_model"], "memory model"),
        dram=DramConfig(**data["dram"]),
        protocol=_enum_from(
            CoherenceProtocol, data.get("protocol", "mesi"), "protocol"
        ),
        seed=data["seed"],
    )


def result_to_dict(result: SimulationResult) -> Dict:
    """Serialize one run."""
    return {
        "format_version": FORMAT_VERSION,
        "config": config_to_dict(result.config),
        "cycles_per_core": result.cycles_per_core,
        "stats": result.stats,
        "effective_tracking_samples": result.effective_tracking_samples,
        "engine": result.engine,
    }


def result_from_dict(data: Dict) -> SimulationResult:
    """Reconstruct one run; validates the format marker."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise TraceError(
            f"unsupported result format {version!r} (expected {FORMAT_VERSION})"
        )
    return SimulationResult(
        config=config_from_dict(data["config"]),
        cycles_per_core=list(data["cycles_per_core"]),
        stats=dict(data["stats"]),
        effective_tracking_samples=list(data["effective_tracking_samples"]),
        engine=data.get("engine", "interp"),
    )


def save_result(result: SimulationResult, path: Union[str, Path]) -> None:
    """Write one run to a JSON file."""
    with open(path, "w") as handle:
        json.dump(result_to_dict(result), handle, indent=1)


def load_result(path: Union[str, Path]) -> SimulationResult:
    """Read a run written by :func:`save_result`."""
    with open(path) as handle:
        return result_from_dict(json.load(handle))


def compare_results(results: Dict[str, SimulationResult], title: str = "comparison") -> str:
    """Side-by-side summary table for named runs.

    The first entry is the normalization baseline for time and traffic.
    """
    if not results:
        raise TraceError("compare_results needs at least one result")
    names = list(results)
    baseline = results[names[0]]
    rows = []
    for name in names:
        result = results[name]
        rows.append(
            [
                name,
                result.config.directory.kind.value,
                f"{result.config.directory.coverage_ratio:g}",
                result.normalized_time(baseline),
                result.normalized_traffic(baseline),
                result.dir_induced_invals_per_kilo,
                result.discovery_per_kilo,
            ]
        )
    return render_table(
        ["run", "directory", "R", "norm. time", "norm. traffic",
         "invals/1k", "discoveries/1k"],
        rows,
        title=title,
    )
