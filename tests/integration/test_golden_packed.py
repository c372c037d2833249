"""Golden equivalence: packed traces must not change a single bit.

Replays one workload through every directory organization in the
evaluation twice — once from the tuple-list :class:`Trace`, once from the
:class:`PackedTrace` stream form the sweep engine now feeds the simulator
— and requires identical per-core cycle counts and an identical flattened
statistics tree.  This is the contract that lets cached results, golden
captures and observed runs ignore which representation produced them.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import KINDS, make_config
from repro.sim.simulator import run_trace
from repro.sim.trace import PackedTrace
from repro.workloads.suite import build_workload

OPS = 400


@pytest.mark.parametrize("kind", KINDS, ids=[k.value for k in KINDS])
def test_packed_run_bit_identical(kind):
    config = make_config(kind, 0.25)
    trace = build_workload("mix", config.num_cores, OPS, seed=3).to_trace()
    unpacked = run_trace(config, trace)
    packed = run_trace(config, PackedTrace.from_trace(trace))
    assert packed.cycles_per_core == unpacked.cycles_per_core
    assert packed.stats == unpacked.stats
    assert packed == unpacked


def test_packed_run_identical_across_seeds():
    config = make_config(KINDS[0], 0.5)
    for seed in (1, 2):
        trace = build_workload(
            "canneal-like", config.num_cores, OPS, seed=seed
        ).to_trace()
        assert run_trace(config, trace) == run_trace(config, trace.pack())


def test_packed_run_identical_with_warmup():
    from repro.sim.simulator import Simulator
    from repro.sim.system import build_system

    config = make_config(KINDS[3], 0.125)
    trace = build_workload("mix", config.num_cores, OPS, seed=4).to_trace()
    a = Simulator(build_system(config), warmup_ops=200).run(trace)
    b = Simulator(build_system(config), warmup_ops=200).run(trace.pack())
    assert a == b
