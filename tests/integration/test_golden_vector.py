"""Golden equivalence: the vector engine must not change a single bit.

Replays one workload through every directory organization in the
evaluation twice — once on the interpreter, once through
``run_trace(..., engine="vector")`` — and requires identical per-core
cycle counts and an identical flattened statistics tree, from the
16-core evaluation machine up to the paper's 1024-core scaling regime.
Every evaluation organization has a flat model; the organizations
without one must fall back to the interpreter transparently (the
result's ``engine`` marker records which engine actually ran).
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import KINDS, make_config
from repro.common.config import DirectoryKind
from repro.sim.parallel import ParallelEngine
from repro.sim.simulator import run_trace
from repro.sim.trace import PackedTrace
from repro.sim.vector import DEFAULT_EPOCH_OPS, VectorEngine, vector_supports
from repro.workloads.suite import build_workload

OPS = 400

#: Every evaluation kind runs on the flat engine.
FLAT_KINDS = tuple(KINDS)

#: Kinds outside the flat model: ``engine="vector"`` runs the interpreter.
FALLBACK_KINDS = (
    DirectoryKind.ADAPTIVE_STASH,
    DirectoryKind.IN_LLC,
    DirectoryKind.TARDIS,
)

#: The counter that shows a run reached the organization's own mechanism
#: (cuckoo relocations, SCD line-pool evictions), so that bit-identity on
#: that kind is not vacuous.
EXERCISED = {
    DirectoryKind.CUCKOO: "system.directory.relocations",
    DirectoryKind.SCD: "system.directory.evictions",
}


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_vector_run_bit_identical(kind):
    config = make_config(kind, 0.25)
    trace = PackedTrace.from_trace(
        build_workload("mix", config.num_cores, OPS, seed=3)
    )
    interp = run_trace(config, trace)
    vector = run_trace(config, trace, engine="vector")
    assert vector.cycles_per_core == interp.cycles_per_core
    assert vector.stats == interp.stats
    assert vector == interp
    assert interp.engine == "interp"
    assert vector.engine == "vector"
    counter = EXERCISED.get(kind)
    if counter is not None:
        assert interp.stats.get(counter, 0) > 0
        assert vector.stats.get(counter, 0) > 0


@pytest.mark.parametrize(
    "kind", FALLBACK_KINDS, ids=[k.value for k in FALLBACK_KINDS]
)
def test_unmodelled_kinds_fall_back_transparently(kind):
    config = make_config(kind, 0.25)
    trace = PackedTrace.from_trace(
        build_workload("mix", config.num_cores, OPS // 4, seed=3)
    )
    assert vector_supports(config) is not None
    vector = run_trace(config, trace, engine="vector")
    assert vector.engine == "interp"
    assert vector == run_trace(config, trace)


@pytest.mark.parametrize("kind", FLAT_KINDS, ids=[k.value for k in FLAT_KINDS])
def test_vector_run_identical_across_workloads(kind):
    config = make_config(kind, 0.5)
    for workload, seed in (("canneal-like", 1), ("locks-like", 2)):
        trace = build_workload(
            workload, config.num_cores, OPS, seed=seed
        ).to_trace()
        interp = run_trace(config, trace)
        vector = run_trace(config, trace.pack(), engine="vector")
        assert vector == interp
        assert vector.engine == "vector"


def test_vector_run_identical_across_epoch_sizes():
    """Epoch batching is invisible: any slicing yields the same bits."""
    config = make_config(DirectoryKind.STASH, 0.25)
    trace = PackedTrace.from_trace(
        build_workload("mix", config.num_cores, OPS, seed=5)
    )
    reference = VectorEngine(config).run(trace)
    for epoch_ops in (1, 7, OPS - 1, OPS, DEFAULT_EPOCH_OPS):
        result = VectorEngine(config, epoch_ops=epoch_ops).run(trace)
        assert result == reference, f"epoch_ops={epoch_ops} diverged"


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_vector_64core_bit_identical(kind):
    config = make_config(kind, 0.25, num_cores=64, seed=2)
    trace = PackedTrace.from_trace(build_workload("mix", 64, OPS, seed=7))
    vector = run_trace(config, trace, engine="vector")
    assert vector == run_trace(config, trace)
    assert vector.engine == "vector"


def test_vector_1024core_bit_identical():
    """The paper's largest machine: both engines agree at 1024 cores."""
    config = make_config(DirectoryKind.STASH, 0.125, num_cores=1024, seed=1)
    trace = PackedTrace.from_trace(
        build_workload("weakscale-like", 1024, 120, seed=1)
    )
    vector = run_trace(config, trace, engine="vector")
    assert vector == run_trace(config, trace)
    assert vector.engine == "vector"


def test_contended_locks_bit_identical():
    """Heavy contention: over half the ops on this trace miss or upgrade."""
    config = make_config(DirectoryKind.STASH, 0.125, num_cores=16, seed=1)
    trace = PackedTrace.from_trace(build_workload("locks-like", 16, 1200, seed=1))
    vector = run_trace(config, trace, engine="vector")
    assert vector == run_trace(config, trace)
    assert vector.engine == "vector"


def test_benchmark_constructor_call_bit_identical():
    """What perfbench's weakscale workload relies on from ``ParallelEngine``.

    perfbench/worker.py builds the engine with this exact call and
    perfbench/run.py reads ``spec_stats`` under five keys and
    ``heap_stats["neheap_max"]``.  The name runs the vector engine.
    """
    config = make_config(DirectoryKind.STASH, 0.125, num_cores=64, seed=1)
    trace = PackedTrace.from_trace(
        build_workload("weakscale-like", 64, 300, seed=1)
    )
    engine = ParallelEngine(config, workers="auto", speculate=True)
    result = engine.run(trace)
    assert result == run_trace(config, trace)
    assert result.engine == "vector"
    assert engine.spec_stats == {
        "chunks": 0, "ops": 0, "squashes": 0, "squashed_ops": 0, "flushes": 0,
    }
    assert "neheap_max" in engine.heap_stats
