"""The experiment registry's claims, checked at sizes where they bite.

Every entry of :data:`repro.analysis.experiments.EXPERIMENTS` carries a
claim: a predicate over its ``out.data``.  ``benchmarks/bench_experiments.py``
evaluates all of them at benchmark scale.  This module evaluates ten of
them at that same scale, about 20 s on one worker of a 2-CPU host, with
the headline on the full suite at 2000 ops/core: there sparse@1/8 runs
1.45x slower than sparse@1x (1.12x at 300 ops/core), so "stash@1/8
matches sparse@1x and sparse@1/8 is worse" has something to hold against.

One worker, result cache off.  The memo stays on for the module, so
later experiments reuse the headline's points (F7 all of them, A1, A2, A4
and S4 their baselines).  F5's and F6's provisioning sweeps are judged
only at benchmark scale; the last two tests check on fixed data that
their predicates reject what they should.
"""

from __future__ import annotations

import pytest

from repro.analysis import runner
from repro.analysis.experiments import EXPERIMENTS

FULL = {"workloads": "all", "ops_per_core": 2000}

#: id -> runner arguments, in evaluation order (memo reuse follows it).
CLAIM_ARGS = {
    "T1": {},
    "T2": {},
    "headline": FULL,
    "F7": FULL,
    "A1": FULL,
    "A2": FULL,
    "F1": FULL,
    "F2": {"ops_per_core": 2000},
    "A4": {"ops_per_core": 2000},
    "S4": {"ops_per_core": 2000},
}


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    """One worker, result cache off, memo shared by the module."""
    previous = runner.configure()
    runner.configure(
        workers=1, cache_dir=tmp_path_factory.mktemp("claims"),
        cache_enabled=False,
    )
    runner.clear_memo()
    yield
    runner.configure(**previous)
    runner.clear_memo()


def test_every_experiment_states_its_claim():
    for exp_id, experiment in EXPERIMENTS.items():
        assert callable(experiment.claim), exp_id
        assert experiment.claim.__doc__, exp_id


@pytest.mark.parametrize("exp_id", CLAIM_ARGS)
def test_claim_holds(engine, exp_id):
    experiment = EXPERIMENTS[exp_id]
    out = experiment.run(**CLAIM_ARGS[exp_id])
    assert experiment.claim(out.data), f"{exp_id}: {experiment.claim.__doc__}"


def test_headline_claim_rejects_swapped_organizations(engine):
    headline = EXPERIMENTS["headline"]
    rows = headline.run(**CLAIM_ARGS["headline"]).data["rows"]
    swapped = [[name, base, stash, sparse] for name, base, sparse, stash in rows]
    assert headline.claim({"rows": rows})
    assert not headline.claim({"rows": swapped})


def test_f5_claim_weighs_stash_excess_against_its_savings():
    claim = EXPERIMENTS["F5"].claim

    def traffic(sparse, stash):
        return {"x": ["1x", "1/8x"], "series": {"sparse": [1.0, sparse], "stash": [1.0, stash]}}

    assert claim(traffic(sparse=2.37, stash=1.51))
    assert not claim(traffic(sparse=2.0, stash=1.6))
    assert not claim(traffic(sparse=1.4, stash=1.5))


def test_f6_claim_weights_false_rates_by_broadcasts():
    claim = EXPERIMENTS["F6"].claim
    # A quiet workload whose few broadcasts are all false does not sink a
    # busy one whose broadcasts mostly find a hider; R=1 rows are ignored.
    assert claim({"a@0.125": (100.0, 0.2), "b@0.125": (5.0, 1.0), "b@1.0": (50.0, 1.0)})
    assert not claim({"a@0.125": (100.0, 0.6), "b@0.125": (5.0, 0.2)})
