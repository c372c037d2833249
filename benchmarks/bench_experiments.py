"""Every registered experiment at benchmark scale, with its claim checked.

One case per id in :data:`repro.analysis.experiments.EXPERIMENTS`, in
report order: it times one run of the experiment, prints its table or
figure, and asserts its claim.  The only per-id data here is the scale
each experiment runs at (``BENCH_ARGS``); the grids and the claims live
in the registry.

    pytest benchmarks/bench_experiments.py --benchmark-only
    pytest benchmarks/bench_experiments.py --benchmark-only -k "[F3] or [headline]"
"""

import pytest

from repro.analysis.experiments import EXPERIMENTS

from benchmarks.conftest import BENCH_OPS, BENCH_RATIOS, once

#: The runner's own workloads (the quick subset unless it names others).
DEFAULT = {"ops_per_core": BENCH_OPS}
#: The full workload suite.
FULL = {"workloads": "all", "ops_per_core": BENCH_OPS}
#: The full suite over the shared provisioning ratios.
SWEEP = {**FULL, "ratios": BENCH_RATIOS}

#: Keyword arguments for each experiment's runner.
BENCH_ARGS = {
    "T1": {},
    "T2": {},
    "F1": FULL,
    "F2": DEFAULT,
    "F3": SWEEP,
    "headline": FULL,
    "F4": SWEEP,
    "F5": SWEEP,
    "F6": SWEEP,
    "F7": FULL,
    "F8": DEFAULT,
    # 64 cores in pure Python: shorter traces.
    "F9": {"ops_per_core": 800},
    "F10": SWEEP,
    "F11": FULL,
    "A1": FULL,
    "A2": FULL,
    "A3": DEFAULT,
    "A4": DEFAULT,
    "A5": DEFAULT,
    "S1": DEFAULT,
    "S2": DEFAULT,
    # Five seeds x three configurations per workload.
    "S3": {"ops_per_core": 1200},
    "S4": DEFAULT,
}


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_experiment_claim(benchmark, report, exp_id):
    experiment = EXPERIMENTS[exp_id]
    out = once(benchmark, experiment.run, **BENCH_ARGS[exp_id])
    report(out)
    assert experiment.claim(out.data), f"{exp_id}: {experiment.claim.__doc__}"
