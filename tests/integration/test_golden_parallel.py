"""Golden equivalence: the parallel engine must not change a single bit.

The bank-parallel run-length batching engine (:mod:`repro.sim.parallel`)
is the third execution engine for the same machine; its contract is the
same golden one the vector engine carries.  Every test here compares
complete :class:`~repro.sim.results.SimulationResult` objects — per-core
cycles, the flattened statistics tree and the effective-tracking sample
series — against the serial interpreter and the vector engine, across
directory organizations, scan-window sizes and core counts up to the
paper's scaling regime.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import KINDS, make_config
from repro.common.config import DirectoryKind
from repro.common.errors import TraceError
from repro.sim.parallel import ParallelEngine, parallel_supports
from repro.sim.simulator import run_trace
from repro.sim.trace import PackedTrace
from repro.workloads.suite import build_workload

OPS = 400

#: Kinds outside the flat model: they must fall back transparently.
FALLBACK_KINDS = (
    DirectoryKind.ADAPTIVE_STASH,
    DirectoryKind.IN_LLC,
    DirectoryKind.TARDIS,
)


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_parallel_run_bit_identical(kind):
    config = make_config(kind, 0.25)
    trace = PackedTrace.from_trace(
        build_workload("mix", config.num_cores, OPS, seed=3)
    )
    interp = run_trace(config, trace)
    parallel = run_trace(config, trace, engine="parallel")
    assert parallel.cycles_per_core == interp.cycles_per_core
    assert parallel.stats == interp.stats
    assert parallel == interp
    assert parallel.engine == "parallel"


@pytest.mark.parametrize(
    "kind", FALLBACK_KINDS, ids=[k.value for k in FALLBACK_KINDS]
)
def test_unmodelled_kinds_fall_back_transparently(kind):
    config = make_config(kind, 0.25)
    trace = PackedTrace.from_trace(
        build_workload("mix", config.num_cores, OPS // 4, seed=3)
    )
    assert parallel_supports(config) is not None
    parallel = run_trace(config, trace, engine="parallel")
    assert parallel.engine == "interp"
    assert parallel == run_trace(config, trace)


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_tri_engine_64core_bit_identical(kind):
    """Interpreter, vector and parallel agree at the 64-core scale."""
    config = make_config(kind, 0.25, num_cores=64, seed=2)
    trace = PackedTrace.from_trace(build_workload("mix", 64, OPS, seed=7))
    interp = run_trace(config, trace)
    vector = run_trace(config, trace, engine="vector")
    parallel = run_trace(config, trace, engine="parallel")
    assert vector == interp
    assert parallel == interp


def test_parallel_identical_across_window_sizes():
    """Scan-window slicing is invisible: any epoch_ops yields the same bits."""
    config = make_config(DirectoryKind.STASH, 0.25)
    trace = PackedTrace.from_trace(
        build_workload("mix", config.num_cores, OPS, seed=5)
    )
    reference = ParallelEngine(config).run(trace)
    for epoch_ops in (1, 7, OPS - 1, OPS, 4096):
        result = ParallelEngine(config, epoch_ops=epoch_ops).run(trace)
        assert result == reference, f"epoch_ops={epoch_ops} diverged"


def test_parallel_256core_smoke():
    """One point in the scaling regime: 256 cores, bit-identical to vector."""
    config = make_config(
        DirectoryKind.STASH, 0.125, num_cores=256, seed=1
    )
    trace = PackedTrace.from_trace(
        build_workload("weakscale-like", 256, 300, seed=1)
    )
    vector = run_trace(config, trace, engine="vector")
    parallel = run_trace(config, trace, engine="parallel")
    assert parallel == vector
    assert parallel.engine == "parallel"


def test_tri_engine_1024core_bit_identical():
    """The paper's largest machine: all three engines agree at 1024 cores."""
    config = make_config(DirectoryKind.STASH, 0.125, num_cores=1024, seed=1)
    trace = PackedTrace.from_trace(
        build_workload("weakscale-like", 1024, 120, seed=1)
    )
    interp = run_trace(config, trace)
    vector = run_trace(config, trace, engine="vector")
    parallel = run_trace(config, trace, engine="parallel")
    assert vector == interp
    assert parallel == interp
    assert parallel.engine == "parallel"


def test_contended_locks_bit_identical():
    """Heavy contention keeps every window stale and still changes no bit.

    On ``locks-like`` nearly every event invalidates lines under other
    cores' scans, so revalidation, dropped next-event bounds and short
    runs on the serial path carry most of the trace.
    """
    config = make_config(DirectoryKind.STASH, 0.125, num_cores=16, seed=1)
    trace = PackedTrace.from_trace(build_workload("locks-like", 16, 1200, seed=1))
    assert ParallelEngine(config).run(trace) == run_trace(config, trace)


def test_benchmark_constructor_call_bit_identical():
    """What perfbench's weakscale workload relies on from the engine.

    perfbench/worker.py builds the engine with this exact call and
    perfbench/run.py reads ``spec_stats`` under five keys and
    ``heap_stats["neheap_max"]``.  ``speculate`` is accepted and ignored,
    so the speculation counters all read 0.
    """
    config = make_config(DirectoryKind.STASH, 0.125, num_cores=64, seed=1)
    trace = PackedTrace.from_trace(
        build_workload("weakscale-like", 64, 300, seed=1)
    )
    engine = ParallelEngine(config, workers="auto", speculate=True)
    result = engine.run(trace)
    assert result == run_trace(config, trace)
    assert result.engine == "parallel"
    assert engine.spec_stats == {
        "chunks": 0, "ops": 0, "squashes": 0, "squashed_ops": 0, "flushes": 0,
    }
    assert engine.heap_stats["neheap_max"] > 0


def test_parallel_engine_rejects_worker_counts():
    """Scans always run inline: only 0 and "auto" are accepted."""
    config = make_config(DirectoryKind.STASH, 0.125)
    with pytest.raises(TraceError):
        ParallelEngine(config, workers=2)


def test_neheap_compaction_bounds_churn():
    """Stale next-event bounds are compacted away, not accumulated.

    ``falseshare-like`` republishes bounds on nearly every op (every
    event dirties every sharer), the worst case for lazy deletion; the
    compaction threshold (stale > 2x live) must actually fire and keep
    the heap within a small multiple of the core count — while leaving
    the results bit-identical to the interpreter.
    """
    config = make_config(DirectoryKind.STASH, 0.125, num_cores=8, seed=1)
    trace = PackedTrace.from_trace(
        build_workload("falseshare-like", 8, 1200, seed=1)
    )
    interp = run_trace(config, trace)
    engine = ParallelEngine(config, epoch_ops=96)
    result = engine.run(trace)
    assert result == interp
    stats = engine.heap_stats
    assert stats["neheap_compactions"] > 0
    assert stats["neheap_max"] <= 3 * 8 + 9
    assert stats["neheap_live"] == 0  # every core drained
