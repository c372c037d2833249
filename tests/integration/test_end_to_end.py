"""End-to-end integration: full simulations with invariants enabled.

Every (directory kind x workload class) pair runs a real multi-core trace
with the complete invariant suite checked periodically and at the end —
the strongest correctness statement the test suite makes.
"""

import pytest

from repro.analysis.experiments import make_config
from repro.common.config import DirectoryKind, SharerFormat
from repro.sim.simulator import Simulator
from repro.sim.system import build_system
from repro.workloads.suite import SUITE_ORDER, build_workload
from tests.conftest import checked_simulator

KINDS = [
    DirectoryKind.IDEAL,
    DirectoryKind.SPARSE,
    DirectoryKind.CUCKOO,
    DirectoryKind.SCD,
    DirectoryKind.STASH,
    DirectoryKind.ADAPTIVE_STASH,
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("workload", ["blackscholes-like", "fluidanimate-like", "mix"])
def test_invariants_hold_under_pressure(kind, workload):
    """R=1/8 provisioning, 16 cores, full invariant checking."""
    config = make_config(kind, ratio=0.125)
    trace = build_workload(workload, 16, 400, seed=11)
    result = checked_simulator(build_system(config), every=512).run(trace)
    assert result.total_accesses == 16 * 400


@pytest.mark.parametrize("kind", KINDS)
def test_all_workloads_complete(kind):
    """Every suite workload completes on every organization (no invariants,
    broader coverage)."""
    config = make_config(kind, ratio=0.25)
    for workload in SUITE_ORDER:
        trace = build_workload(workload, 16, 120, seed=3)
        result = Simulator(build_system(config)).run(trace)
        assert result.total_accesses == 16 * 120


@pytest.mark.parametrize(
    "fmt", [SharerFormat.FULL_BIT_VECTOR, SharerFormat.COARSE_VECTOR, SharerFormat.LIMITED_POINTER]
)
@pytest.mark.parametrize("kind", [DirectoryKind.SPARSE, DirectoryKind.STASH])
def test_sharer_formats_preserve_correctness(fmt, kind):
    """Imprecise sharer encodings cost traffic, never correctness."""
    config = make_config(kind, ratio=0.25, sharer_format=fmt)
    trace = build_workload("mix", 16, 300, seed=5)
    checked_simulator(build_system(config), every=512).run(trace)


def test_notification_mode_end_to_end():
    config = make_config(DirectoryKind.STASH, ratio=0.125, clean_notification=True)
    trace = build_workload("mix", 16, 400, seed=7)
    result = checked_simulator(build_system(config), every=512).run(trace)
    # With notifications, stale state never forms: zero false discoveries.
    assert result.false_discoveries == 0


def test_core_scaling_end_to_end():
    for cores in (4, 8, 32):
        config = make_config(DirectoryKind.STASH, ratio=0.125, num_cores=cores)
        trace = build_workload("mix", cores, 120, seed=9)
        checked_simulator(build_system(config), every=512).run(trace)
