"""Parallel sweep execution engine with a two-layer persistent result cache.

Every figure/table in the evaluation fans out over (directory kind x
provisioning ratio x workload) sweep points — dozens of independent pure-
Python simulations.  This module is the one place that executes them:

* **Fan-out** — :func:`run_points` distributes independent sweep points
  across a :class:`~repro.analysis.dispatch.ProcessPoolBackend`
  (``workers > 1``), one point per future, with deterministic result
  ordering: results come back in input order and are byte-identical to a
  serial run, because each simulation is fully determined by its
  :class:`SweepPoint`.  ``workers=1`` (the default), a single pending
  point, or any pool failure (e.g. an unpicklable config) falls back to
  the plain serial loop.  Completed points write their cache entries
  *incrementally* (atomic per-entry files), and ``KeyboardInterrupt`` /
  SIGTERM mid-sweep cancels pending points, drains the pool (terminating
  blocked workers) and re-raises — a killed sweep keeps every finished
  point and never leaves a partially-written cache entry.
* **Shared traces** — workload traces are materialized exactly once per
  distinct key through :mod:`repro.workloads.store`, an in-process memo of
  :class:`~repro.sim.trace.PackedTrace` streams.  The parent
  pre-materializes every distinct trace before dispatch
  (:func:`materialize_traces`), so a kinds x ratios sweep generates each
  workload once, not ``len(kinds) * len(ratios)`` times, and forked
  workers inherit the memo.
* **Persistent cache** — results are cached on disk as JSON under
  ``.repro_cache/`` (override with ``REPRO_CACHE_DIR`` / ``configure``),
  keyed by a stable SHA-256 of the full :class:`~repro.common.config.
  SystemConfig` plus the workload name, trace length and seed.  The key
  also folds in :data:`CACHE_SCHEMA_VERSION` and :func:`code_version`, a
  fingerprint of the simulator sources, so a wrapper-layout bump or any
  source edit invalidates every stale entry.  Corrupt or truncated
  files are detected, dropped and recomputed — never crashed on.
* **In-memory memo** — the per-process memo sits above the disk layer, so
  hot sweep points never touch the filesystem twice in one process.
* **Observability** — :data:`counters` tracks memo/disk hit rates,
  per-point compute wall-times and parallel fallbacks;
  :func:`counters_summary` renders them (CLI ``--cache-stats``).

:func:`run_points` and the campaign service (:mod:`repro.service`) resolve
points through one public core: :func:`lookup` (memo, then disk),
:func:`materialize_traces`, :func:`compute_point` (picklable, so it runs
in pool workers; :func:`execute_point` also hands back an observed
point's live observer) and :func:`record` (memo, disk and counters).

Environment knobs (read once at import, overridable via :func:`configure`
or per-call arguments): ``REPRO_WORKERS`` (worker processes, default 1),
``REPRO_CACHE_DIR`` (cache root, default ``.repro_cache``) and
``REPRO_NO_CACHE`` (any non-empty value disables the result disk layer).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..common.config import SystemConfig
from ..common.fingerprint import source_fingerprint
from ..obs import ObsConfig, Observer, attach
from ..sim.results import SimulationResult
from ..sim.simulator import run_trace
from ..sim.system import build_system
from ..workloads import store as trace_store
from . import dispatch
from .io import FORMAT_VERSION, config_to_dict, result_from_dict, result_to_dict

# Re-exported for callers that think in runner terms (CLI, benchmarks).
trace_counters = trace_store.counters

#: Layout version of the on-disk cache wrapper; bump on wrapper changes.
CACHE_SCHEMA_VERSION = 1

#: Sources that determine a simulation result for a given configuration:
#: the simulator, protocol, organizations, timing models and workload
#: generators (``common/rng.py`` seeds every generator).
RESULT_SOURCES = (
    "sim", "coherence", "directory", "core", "cache", "noc", "mem",
    "workloads", "common",
)


def code_version() -> str:
    """Fingerprint of :data:`RESULT_SOURCES`, folded into every result key.

    Any edit to those sources changes every key, so a cache never serves
    a result the current code would not produce.
    """
    return source_fingerprint(*RESULT_SOURCES)


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation: a workload run on one configuration.

    ``obs`` attaches a :class:`repro.obs.ObsConfig` to the run: the worker
    wires an observer into the built system and, when ``obs.out_prefix``
    is set, writes the epoch/trace exports next to the simulation.
    Observed points are **never cached** (neither memo nor disk): their
    value is the side-channel files, and serving them from cache would
    silently skip the exports.  ``cache_key`` builds its payload from
    explicit fields, so plain points keep their existing cache keys.

    ``engine`` selects the execution engine (``"interp"`` or
    ``"vector"``, see :func:`repro.sim.simulator.run_trace`).  The
    default, ``"vector"``, runs the flat engine on every configuration
    :func:`repro.sim.vector.vector_supports` accepts (all five evaluation
    organizations, without private L2s) and the interpreter on the rest.
    The engines produce bit-identical results, so a point is keyed and
    cached once whatever engine computes it; ``result.engine`` records
    which engine did.
    """

    workload: str
    config: SystemConfig
    ops_per_core: int = 3000
    seed: int = 1
    obs: Optional[ObsConfig] = None
    engine: str = "vector"

    @property
    def memo_key(self) -> tuple:
        """Hashable in-memory memo key (the full parameterization)."""
        return (
            self.workload,
            self.ops_per_core,
            self.seed,
            self.config,
        )

    @property
    def trace_memo_key(self) -> tuple:
        """The workload-generation key this point's input trace shares.

        Points that differ only in directory/NoC/protocol configuration
        replay the identical trace; :func:`materialize_traces` acquires
        each distinct key once.
        """
        return trace_store.memo_key(
            self.workload,
            self.config.num_cores,
            self.ops_per_core,
            self.seed,
            self.config.block_bytes,
        )

    @property
    def observed(self) -> bool:
        """Does this point carry live observability (and bypass caching)?"""
        return self.obs is not None and self.obs.enabled


def cache_key(point: SweepPoint) -> str:
    """Stable content-addressed key for one sweep point.

    SHA-256 over a canonical (sorted-key, no-whitespace) JSON encoding of
    the complete configuration and workload spec plus the cache and code
    versions.  Identical parameterizations hash identically across
    processes and machines; any changed field produces a distinct key.
    The engine is not part of the key: engines agree bit-for-bit.
    """
    payload = {
        "cache_schema": CACHE_SCHEMA_VERSION,
        "code_version": code_version(),
        "result_format": FORMAT_VERSION,
        "workload": point.workload,
        "ops_per_core": point.ops_per_core,
        "seed": point.seed,
        "config": config_to_dict(point.config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class DiskCache:
    """Content-addressed JSON result store under one directory.

    One file per sweep point (``<sha256>.json``), written atomically
    (temp file + ``os.replace``) so readers never observe partial writes.
    Unreadable, truncated or version-mismatched files are treated as
    misses and deleted.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        """The file a key maps to (exists only after :meth:`store`)."""
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional[SimulationResult]:
        """The cached result for ``key``, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            with open(path) as handle:
                wrapper = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            counters.corrupt_entries += 1
            self._discard(path)
            return None
        try:
            if (
                wrapper.get("cache_schema") != CACHE_SCHEMA_VERSION
                or wrapper.get("code_version") != code_version()
                or wrapper.get("key") != key
            ):
                raise ValueError("cache wrapper version/key mismatch")
            return result_from_dict(wrapper["result"])
        except Exception:
            counters.corrupt_entries += 1
            self._discard(path)
            return None

    def store(self, key: str, point: SweepPoint, result: SimulationResult) -> None:
        """Atomically persist one result (best-effort: IO errors ignored)."""
        wrapper = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "code_version": code_version(),
            "key": key,
            "workload": point.workload,
            "ops_per_core": point.ops_per_core,
            "seed": point.seed,
            "result": result_to_dict(result),
        }
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            # One json.dumps call takes the C encoder; json.dump would
            # stream through the pure-Python one, several times slower.
            text = json.dumps(wrapper, separators=(",", ":"))
            with open(tmp, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
            counters.disk_writes += 1
        except OSError:
            self._discard(tmp)

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in self.root.iterdir():
            if path.suffix == ".json" or ".tmp." in path.name:
                self._discard(path)
                removed += 1
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


# ------------------------------------------------------------------ module state

@dataclass
class RunnerCounters:
    """Hit-rate and wall-time counters for the sweep engine.

    ``point_seconds`` holds the per-point compute wall-times of the most
    recent :func:`run_points` batch (cache hits contribute nothing — they
    are the point).  ``trace_seconds`` is the share of compute time spent
    acquiring input traces (store lookups + any generation inside
    workers); ``parallel_batches`` counts :func:`run_points` calls that
    used the pool and ``dispatches`` the points shipped through it.
    """

    memo_hits: int = 0
    disk_hits: int = 0
    computed: int = 0
    disk_writes: int = 0
    corrupt_entries: int = 0
    parallel_fallbacks: int = 0
    parallel_batches: int = 0
    dispatches: int = 0
    compute_seconds: float = 0.0
    trace_seconds: float = 0.0
    batch_seconds: float = 0.0
    point_seconds: List[float] = field(default_factory=list)

    @property
    def lookups(self) -> int:
        """Total sweep points requested (after in-batch deduplication)."""
        return self.memo_hits + self.disk_hits + self.computed

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either cache layer."""
        total = self.lookups
        return (self.memo_hits + self.disk_hits) / total if total else 0.0

    def reset(self) -> None:
        """Zero every counter (tests and benchmarks)."""
        self.__init__()


#: Process-global counters (reset with ``counters.reset()``).
counters = RunnerCounters()

#: In-memory memo layered above the disk cache (read and filled through
#: :func:`lookup` and :func:`record`).
_MEMO: Dict[tuple, SimulationResult] = {}

_DEFAULTS = {
    "workers": max(1, int(os.environ.get("REPRO_WORKERS", "1") or "1")),
    "cache_dir": os.environ.get("REPRO_CACHE_DIR") or ".repro_cache",
    "cache_enabled": not os.environ.get("REPRO_NO_CACHE"),
}


def configure(
    workers: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    cache_enabled: Optional[bool] = None,
    trace_cache_enabled: Optional[bool] = None,
) -> Dict[str, object]:
    """Set process-wide runner defaults; None leaves a field unchanged.

    Returns the resolved defaults (also the way to inspect them).
    ``trace_cache_enabled`` is accepted and ignored: traces live only in
    the in-process memo, and the keyword stays only until the benchmark
    harness stops passing it (ROADMAP item 1).
    """
    if workers is not None:
        _DEFAULTS["workers"] = max(1, int(workers))
    if cache_dir is not None:
        _DEFAULTS["cache_dir"] = str(cache_dir)
    if cache_enabled is not None:
        _DEFAULTS["cache_enabled"] = bool(cache_enabled)
    return dict(_DEFAULTS)


def default_cache() -> DiskCache:
    """A DiskCache rooted at the currently configured directory."""
    return DiskCache(_DEFAULTS["cache_dir"])


def campaigns_root(cache_dir: Optional[Union[str, Path]] = None) -> Path:
    """The campaign-journal directory under a cache root (default: configured)."""
    root = Path(cache_dir) if cache_dir is not None else Path(_DEFAULTS["cache_dir"])
    return root / "campaigns"


def clear_memo() -> None:
    """Drop the in-memory result memo only."""
    _MEMO.clear()


def clear_disk_cache() -> int:
    """Delete every entry in the configured disk cache; returns the count."""
    return default_cache().clear()


def clear_trace_cache() -> None:
    """Drop the trace memo."""
    trace_store.clear_memo()


def clear_campaign_store() -> int:
    """Delete every journaled campaign under the configured cache dir."""
    # Imported lazily: repro.service sits above the analysis layer.
    from ..service.store import CampaignStore

    return CampaignStore(campaigns_root()).clear()


def clear_all() -> None:
    """Drop every cache layer — result memo+disk, trace memo and the
    campaign journal store."""
    clear_memo()
    clear_disk_cache()
    clear_trace_cache()
    clear_campaign_store()


# ------------------------------------------------------------------ execution

def execute_point(
    point: SweepPoint,
) -> Tuple[Tuple[SimulationResult, float, float], Optional[Observer]]:
    """Run one sweep point; returns ``((result, seconds, trace_seconds), observer)``.

    The input trace comes from the shared trace memo (generated on a
    miss) in packed form, so repeated points over one workload never
    regenerate it; ``trace_seconds`` is the acquisition share of the
    point's wall time.  An observed point runs on a system with its
    :class:`~repro.obs.Observer` attached, which comes back live (the
    service reads its gauges); ``observer`` is None for a plain point.
    """
    start = time.perf_counter()
    trace = trace_store.get_packed_trace(
        point.workload,
        point.config.num_cores,
        point.ops_per_core,
        seed=point.seed,
        block_bytes=point.config.block_bytes,
    )
    trace_seconds = time.perf_counter() - start
    observer = None
    if point.observed:
        system = build_system(point.config)
        observer = attach(system, point.obs)
        result = run_trace(point.config, trace, system=system, observer=observer)
    else:
        result = run_trace(point.config, trace, engine=point.engine)
    return (result, time.perf_counter() - start, trace_seconds), observer


def compute_point(point: SweepPoint) -> Tuple[SimulationResult, float, float]:
    """Run one sweep point; returns (result, seconds, trace_seconds).

    :func:`execute_point` without the observer: an observed point writes
    its exports under its ``out_prefix`` (if any) instead.  Top-level so
    :class:`ProcessPoolExecutor` can pickle it.
    """
    output, observer = execute_point(point)
    if observer is not None:
        observer.write_all(
            meta={"workload": point.workload, "ops_per_core": point.ops_per_core,
                  "seed": point.seed}
        )
    return output


def effective_workers(requested: Optional[int]) -> int:
    """Resolve a per-call ``workers`` argument to the count actually used.

    An explicit request is honored as-is (floored at 1) — tests and
    benchmarks deliberately oversubscribe.  The configured *default* is
    clamped to ``os.cpu_count()``: spawning more sweep processes than
    cores only adds pool overhead, and on a single-CPU host the clamp
    makes the default path purely serial (no executor at all).
    """
    if requested is not None:
        return max(1, int(requested))
    configured = int(_DEFAULTS["workers"])
    return max(1, min(configured, os.cpu_count() or 1))


def lookup(
    point: SweepPoint, disk: Optional[DiskCache]
) -> Optional[SimulationResult]:
    """The cached result for ``point`` — memo, then ``disk`` — or None.

    Counts the hit in :data:`counters`; a disk hit also fills the memo.
    ``disk=None`` skips the disk layer.  Observed points always miss:
    their exports are the point, so neither layer serves them.
    """
    if point.observed:
        return None
    hit = _MEMO.get(point.memo_key)
    if hit is not None:
        counters.memo_hits += 1
        return hit
    if disk is not None:
        hit = disk.load(cache_key(point))
        if hit is not None:
            counters.disk_hits += 1
            _MEMO[point.memo_key] = hit
    return hit


def record(
    point: SweepPoint,
    output: Tuple[SimulationResult, float, float],
    disk: Optional[DiskCache],
) -> str:
    """Fold one :func:`compute_point` output into the counters and caches.

    Writes the memo and ``disk`` (``None`` skips it) and adds to
    ``computed``, ``compute_seconds`` and ``trace_seconds``.  Returns the
    point's :func:`cache_key`, or ``""`` for an observed point, which is
    counted but never cached.
    """
    result, seconds, trace_seconds = output
    counters.computed += 1
    counters.compute_seconds += seconds
    counters.trace_seconds += trace_seconds
    if point.observed:
        return ""
    key = cache_key(point)
    _MEMO[point.memo_key] = result
    if disk is not None:
        disk.store(key, point, result)
    return key


def materialize_traces(points: Sequence[SweepPoint]) -> None:
    """Acquire each distinct input trace of ``points`` once.

    Called before dispatch, so every later :func:`compute_point` finds its
    trace in the memo, inherited by a worker forked afterwards: a kinds x
    ratios sweep performs one generation per workload.
    """
    seen = set()
    for point in points:
        key = point.trace_memo_key
        if key not in seen:
            seen.add(key)
            trace_store.get_packed_trace(*key)


def _compute_all(
    points: Sequence[SweepPoint],
    workers: int,
    disk: Optional[DiskCache],
) -> List[Tuple[SimulationResult, float, float]]:
    """Compute and :func:`record` every point; outputs in input order.

    Each point is recorded as it completes, so an interrupted sweep keeps
    everything that finished.  With ``workers > 1`` every point is one
    future on a process pool.  Any pool-level failure (pickling, missing
    OS support, broken pool) counts a fallback and the serial loop
    computes whatever the pool did not finish, so a sweep never dies on
    parallel plumbing; ``KeyboardInterrupt`` and SIGTERM cancel pending
    points, drain the pool and re-raise.
    """
    outputs: List[Optional[Tuple[SimulationResult, float, float]]]
    outputs = [None] * len(points)

    def _done(index: int, output: Tuple[SimulationResult, float, float]) -> None:
        outputs[index] = output
        record(points[index], output, disk)

    with dispatch.graceful_sigterm():
        if workers > 1 and len(points) > 1:
            backend = dispatch.ProcessPoolBackend(min(workers, len(points)))
            try:
                dispatch.run_each(backend, compute_point, points, on_result=_done)
                counters.parallel_batches += 1
                counters.dispatches += len(points)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:
                counters.parallel_fallbacks += 1
            finally:
                backend.shutdown()
        for index, point in enumerate(points):
            if outputs[index] is None:
                _done(index, compute_point(point))
    return outputs  # type: ignore[return-value]


def run_points(
    points: Sequence[SweepPoint],
    workers: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    cache_enabled: Optional[bool] = None,
) -> List[SimulationResult]:
    """Execute sweep points through memo -> disk cache -> (parallel) compute.

    Results are returned in input order; duplicate points are simulated
    once.  Every distinct input trace is materialized exactly once in this
    process (into the trace memo) before any dispatch, then each pending point
    is computed on its own.  Completed points land in the memo and disk
    cache *as they finish*, so an interrupted sweep resumes from
    everything already computed.  Per-call arguments override the
    configured defaults (None means "use the default").
    """
    workers = effective_workers(workers)
    use_disk = _DEFAULTS["cache_enabled"] if cache_enabled is None else bool(cache_enabled)
    disk = None
    if use_disk:
        disk = DiskCache(cache_dir) if cache_dir is not None else default_cache()

    batch_start = time.perf_counter()
    results: List[Optional[SimulationResult]] = [None] * len(points)
    # key -> (point, indices waiting for it).  Observed points also key on
    # their obs config, so identical sims with different observability
    # stay distinct.
    pending: Dict[tuple, Tuple[SweepPoint, List[int]]] = {}
    for index, point in enumerate(points):
        key = (point.memo_key, point.obs) if point.observed else point.memo_key
        if key in pending:
            pending[key][1].append(index)
            continue
        hit = lookup(point, disk)
        if hit is not None:
            results[index] = hit
        else:
            pending[key] = (point, [index])

    if pending:
        todo = [point for point, _ in pending.values()]
        materialize_traces(todo)
        outputs = _compute_all(todo, workers, disk)
        counters.point_seconds = [seconds for _, seconds, _ in outputs]
        for (_, indices), (result, _, _) in zip(pending.values(), outputs):
            for index in indices:
                results[index] = result
    counters.batch_seconds += time.perf_counter() - batch_start
    return results  # type: ignore[return-value]


def counters_summary() -> str:
    """One-paragraph human-readable counter report (results, traces,
    campaign journals)."""
    from ..service.store import CampaignStore

    c = counters
    t = trace_store.counters
    campaigns = CampaignStore(campaigns_root()).stats()
    lines = [
        "sweep runner counters:",
        f"  lookups        {c.lookups}  (memo {c.memo_hits}, disk {c.disk_hits}, "
        f"computed {c.computed})",
        f"  hit rate       {c.hit_rate:.1%}",
        f"  compute time   {c.compute_seconds:.2f}s over {c.computed} points"
        + (
            f" (last batch: {len(c.point_seconds)} points, "
            f"max {max(c.point_seconds):.2f}s)"
            if c.point_seconds
            else ""
        ),
        f"  batch time     {c.batch_seconds:.2f}s  "
        f"(parallel batches {c.parallel_batches}, dispatches {c.dispatches}, "
        f"fallbacks {c.parallel_fallbacks})",
        f"  disk           writes {c.disk_writes}, corrupt dropped {c.corrupt_entries}",
        f"  traces         {t.lookups} lookups (memo {t.memo_hits}, "
        f"generated {t.generated} in {t.gen_seconds:.2f}s); "
        f"acquisition {c.trace_seconds:.2f}s of compute",
        f"  campaigns      {campaigns['campaigns']} journaled "
        f"({campaigns['files']} files, {campaigns['bytes']} bytes)",
    ]
    return "\n".join(lines)
