"""Golden statistics after a warm-up on the interpreter.

``Simulator(..., warmup_ops=N)`` discards the warm-up's statistics with
``StatGroup.reset()``: a cell bound through ``StatGroup.counter`` is
zeroed in place and stays in the tree at 0.0, while a counter created by
``StatGroup.add`` is deleted and reappears only when it fires again.  So
whether a counter is bound or added shows only in the post-warm-up tree,
and no full-run golden can pin it.  ``tests/data/golden_warmup.json`` holds
the per-core cycles and the full flattened tree of every evaluation
organization at R = 1/8 on two traces:

* ``weakscale-like`` 16 x 400 with a warm-up of 6,240 ops, after which
  stash@1/8 makes no LLC miss (so its memory counters must stay absent);
* ``mix`` 16 x 300 with a warm-up of 2,400 ops.

Regenerate (only when a statistic is meant to change) with::

    PYTHONPATH=src python tests/integration/test_golden_warmup.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.experiments import make_config
from repro.common.config import DirectoryKind
from repro.sim.simulator import Simulator
from repro.sim.system import build_system
from repro.workloads.suite import build_workload

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_warmup.json"

RATIO = 0.125
SEED = 1

#: name -> (workload, cores, ops per core, warm-up ops)
TRACES = {
    "weakscale": ("weakscale-like", 16, 400, 6240),
    "mix": ("mix", 16, 300, 2400),
}

KINDS = {
    "sparse": DirectoryKind.SPARSE,
    "cuckoo": DirectoryKind.CUCKOO,
    "hierarchical": DirectoryKind.SCD,
    "ideal": DirectoryKind.IDEAL,
    "stash": DirectoryKind.STASH,
}


def _run(trace_name: str, kind_name: str) -> dict:
    workload, cores, ops, warmup = TRACES[trace_name]
    config = make_config(KINDS[kind_name], ratio=RATIO)
    trace = build_workload(
        workload, cores, ops, seed=SEED, block_bytes=config.block_bytes
    )
    result = Simulator(build_system(config), warmup_ops=warmup).run(trace)
    return {"cycles_per_core": result.cycles_per_core, "stats": result.stats}


def capture() -> dict:
    """Run every (trace, kind) cell; the golden file's contents."""
    return {
        "ratio": RATIO,
        "seed": SEED,
        "traces": {name: list(spec) for name, spec in TRACES.items()},
        "runs": {
            trace: {kind: _run(trace, kind) for kind in sorted(KINDS)}
            for trace in sorted(TRACES)
        },
    }


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None

CELLS = [(trace, kind) for trace in sorted(TRACES) for kind in sorted(KINDS)]

_RESULTS: dict = {}


def _result(trace: str, kind: str) -> dict:
    # Memoized: the cycle and stats tests compare the same run.
    key = (trace, kind)
    if key not in _RESULTS:
        _RESULTS[key] = _run(trace, kind)
    return _RESULTS[key]


def test_golden_covers_every_cell():
    assert GOLDEN["ratio"] == RATIO and GOLDEN["seed"] == SEED
    assert GOLDEN["traces"] == {name: list(spec) for name, spec in TRACES.items()}
    assert set(GOLDEN["runs"]) == set(TRACES)
    for runs in GOLDEN["runs"].values():
        assert set(runs) == set(KINDS)


def test_stash_weakscale_has_no_miss_after_warmup():
    # The cell that tells a bound counter from an added one: with no LLC
    # miss after the warm-up, an added memory counter must stay absent.
    stats = GOLDEN["runs"]["weakscale"]["stash"]["stats"]
    assert "system.memory.reads" not in stats
    assert stats["system.protocol.llc_misses"] == 0.0


@pytest.mark.parametrize("trace, kind", CELLS)
def test_cycles_identical_to_golden(trace, kind):
    expected = GOLDEN["runs"][trace][kind]["cycles_per_core"]
    assert _result(trace, kind)["cycles_per_core"] == expected


@pytest.mark.parametrize("trace, kind", CELLS)
def test_stats_identical_to_golden(trace, kind):
    expected = GOLDEN["runs"][trace][kind]["stats"]
    stats = _result(trace, kind)["stats"]
    # Key-set equality first, so a dropped or phantom counter is named.
    missing = sorted(set(expected) - set(stats))
    extra = sorted(set(stats) - set(expected))
    assert not missing and not extra, f"{trace}/{kind}: missing={missing} extra={extra}"
    for key in sorted(expected):
        assert stats[key] == expected[key], (
            f"{trace}/{kind}: stat {key!r} = {stats[key]} (golden {expected[key]})"
        )


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
