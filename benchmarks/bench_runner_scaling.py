"""Sweep-engine scaling: cold-sweep wall time at 1, 2 and 4 workers.

Runs the same provisioning sweep (a subset of the F3 point set) through
:func:`repro.analysis.runner.run_points` with every cache layer cold, at
each worker count, checks that every run reproduces the serial results
exactly, and writes the timing trajectory, the measured trace-generation
share, the host and the commit to ``BENCH_runner.json`` at the repository
root so speedups are trackable across commits.  Each worker count is
timed in :data:`ROUNDS` rounds interleaved with the others (1, 2, 4, 1,
2, 4, ...) and its time is the median round: the sweep takes well under
a second, so on a shared host one slow spell would otherwise decide the
comparison.

Speedup expectations scale with the host: on a single-CPU machine the
parallel runs mostly measure process-pool overhead, so the benchmark
asserts determinism and bounded slowdown rather than a fixed speedup.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

from repro.analysis import runner
from repro.analysis.experiments import make_config
from repro.common.config import DirectoryKind
from repro.workloads import store as trace_store

from benchmarks.conftest import once

#: Worker counts the trajectory records.
WORKER_COUNTS = [1, 2, 4]

#: Interleaved timing rounds per worker count (the median is reported).
ROUNDS = 3

#: A small but representative cold sweep: 2 organizations x 3 ratios x
#: 2 workloads = 12 independent points sharing 2 distinct traces.
SCALING_OPS = 600
SCALING_POINTS = [
    runner.SweepPoint(workload, make_config(kind, ratio), SCALING_OPS, 1)
    for kind in (DirectoryKind.SPARSE, DirectoryKind.STASH)
    for ratio in (1.0, 0.25, 0.125)
    for workload in ("blackscholes-like", "mix")
]

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = ROOT / "BENCH_runner.json"


def _commit():
    """The checkout's HEAD commit, or None outside a git repository."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _cold_sweep(workers: int):
    """One fully cold run: result memo, trace memo and the disk cache off."""
    runner.clear_memo()
    trace_store.clear_memo()
    start = time.perf_counter()
    results = runner.run_points(SCALING_POINTS, workers=workers, cache_enabled=False)
    return time.perf_counter() - start, results


def _trace_share():
    """Fraction of a serial cold sweep spent generating workload traces."""
    runner.clear_memo()
    trace_store.clear_memo()
    trace_store.counters.reset()
    start = time.perf_counter()
    runner.run_points(SCALING_POINTS, workers=1, cache_enabled=False)
    total = time.perf_counter() - start
    share = trace_store.counters.gen_seconds / total if total else 0.0
    return {
        "distinct_traces": trace_store.counters.generated,
        "gen_seconds": round(trace_store.counters.gen_seconds, 4),
        "sweep_seconds": round(total, 4),
        "share": round(share, 4),
    }


def test_runner_scaling(benchmark):
    rounds = {workers: [] for workers in WORKER_COUNTS}
    reference = None
    for _ in range(ROUNDS):
        for workers in WORKER_COUNTS:
            seconds, results = _cold_sweep(workers)
            if reference is None:
                reference = results
            else:
                # Every run must reproduce the first serial run exactly.
                assert results == reference, f"workers={workers} diverged from serial"
            rounds[workers].append(round(seconds, 4))
    trajectory = [
        {
            "workers": workers,
            "seconds": statistics.median(rounds[workers]),
            "rounds": rounds[workers],
        }
        for workers in WORKER_COUNTS
    ]

    serial = trajectory[0]["seconds"]
    payload = {
        "benchmark": "runner_scaling",
        "points": len(SCALING_POINTS),
        "ops_per_core": SCALING_OPS,
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "python": platform.python_version(),
        "trace_generation": _trace_share(),
        "trajectory": trajectory,
        "speedup_vs_serial": {
            str(t["workers"]): round(serial / t["seconds"], 3) if t["seconds"] else None
            for t in trajectory
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")

    # Timed round for the harness: the serial cold sweep (the baseline the
    # speedups are measured against).
    once(benchmark, lambda: _cold_sweep(1)[0])

    with open(OUTPUT) as handle:
        report_payload = json.load(handle)
    assert report_payload["trajectory"] == trajectory
    # Sanity bound rather than a host-dependent speedup assertion: with
    # multiple CPUs the parallel runs should beat serial; on one CPU the
    # pool overhead must still stay within a small constant factor.
    workers_2 = trajectory[1]["seconds"]
    workers_4 = trajectory[-1]["seconds"]
    cpus = os.cpu_count() or 1
    if cpus >= 4:
        assert workers_4 < serial
    if cpus >= 2:
        assert workers_2 < serial
    else:
        assert workers_4 < serial * 5


def test_sweep_shares_traces(tmp_path):
    """A cold sweep generates each distinct workload trace exactly once."""
    runner.clear_memo()
    trace_store.clear_memo()
    trace_store.counters.reset()
    runner.run_points(SCALING_POINTS, workers=1, cache_dir=tmp_path)
    distinct = len({p.trace_memo_key for p in SCALING_POINTS})
    assert trace_store.counters.generated == distinct


def test_warm_cache_is_near_instant(tmp_path):
    """A warm persistent cache regenerates the sweep without simulating."""
    cache_dir = tmp_path / "cache"
    runner.clear_memo()
    cold, _ = _timed(lambda: runner.run_points(
        SCALING_POINTS, workers=1, cache_dir=cache_dir, cache_enabled=True
    ))
    runner.clear_memo()  # force the disk layer
    warm, _ = _timed(lambda: runner.run_points(
        SCALING_POINTS, workers=1, cache_dir=cache_dir, cache_enabled=True
    ))
    assert warm < cold / 5, f"warm cache not fast: cold={cold:.3f}s warm={warm:.3f}s"


def _timed(fn):
    """(seconds, value) of one call."""
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value
