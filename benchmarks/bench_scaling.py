"""Weak-scaling benchmark: core count as a sweep axis, 16 to 1024 cores.

The paper's scaling argument (§6) is about what happens to a directory as
the machine grows; this benchmark makes the simulator itself answer at
those sizes.  For each core count it runs the ``weakscale-like`` workload
(fixed ops *per core*, so total work grows with the machine) through the
vector engine and records:

* ``seconds`` and ``accesses_per_sec`` (simulator throughput), and
* directory ``bytes_per_core`` from the storage model
  (:func:`repro.energy.area.storage_of`) for the full-bit-vector and the
  SCD-style hierarchical sharer formats — the O(N) vs O(sqrt(N) * log N)
  storage story that motivates the scaling work.

weakscale-like is a lockstep-hit shape: past its cold start nearly every
op hits.  One more row runs a miss-bound paper workload, canneal-like at
256 cores x 1000 ops/core, on stash@1/8 and sparse@1/8 (``paper_workload``
in the report), where directory conflicts and discovery set the pace.

Times are in reference-speed seconds: the vCPUs of a shared host
change speed by up to 2x from one second to the next, so perfbench's
host-speed sampler (``perfbench/measure.py``) runs beside the sweep and
each run's host time is scaled by ``speed_factor`` over the samples
taken during it.  Full mode times every row three times and reports the
median, with every run's raw and scaled seconds beside it; it is the
comparable one.  ``--smoke`` shrinks every trace by the same factor and
times each row once, for CI shape-checking.

The report lands in ``BENCH_scaling.json`` at the repository root, with
the host and the commit it ran on, and its table is rewritten between
the ``bench_scaling`` marker comments of ``docs/PERFORMANCE.md``.

Run standalone::

    python benchmarks/bench_scaling.py           # full measurement
    python benchmarks/bench_scaling.py --smoke   # CI smoke (short traces)

or through pytest, which also checks the report's shape::

    pytest benchmarks/bench_scaling.py --benchmark-only

``make bench-scaling`` runs the full measurement standalone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
for _path in (_SRC, _PERFBENCH):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from measure import SpeedSampler, median, speed_factor  # perfbench's helpers
from repro.analysis.experiments import make_config
from repro.common.config import DirectoryKind, SharerFormat
from repro.energy.area import storage_of
from repro.sim.simulator import run_trace
from repro.sim.trace import PackedTrace
from repro.sim.vector import vector_supports
from repro.workloads.suite import build_workload

#: The weak-scaling sweep: 16 cores (the paper's evaluation size) up to
#: 1024 (its scaling-argument regime).
SIZES = (16, 64, 256, 1024)

#: Fixed work per core.
FULL_OPS = 16000
SMOKE_OPS = 400

#: Timed runs per row; a row reports their median.
FULL_RUNS = 3
SMOKE_RUNS = 1

KIND = DirectoryKind.STASH
RATIO = 0.125
SEED = 1
WORKLOAD = "weakscale-like"

#: The miss-bound paper-workload row; its ops per core shrink with the
#: weak-scaling rows' (1000 at FULL_OPS).
PAPER_WORKLOAD = "canneal-like"
PAPER_CORES = 256
PAPER_OPS = 1000
PAPER_KINDS = (DirectoryKind.STASH, DirectoryKind.SPARSE)

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = ROOT / "BENCH_scaling.json"
DOC = ROOT / "docs" / "PERFORMANCE.md"
DOC_BEGIN = "<!-- bench_scaling table: begin (generated from BENCH_scaling.json) -->"
DOC_END = "<!-- bench_scaling table: end -->"


def _commit():
    """The checkout's HEAD commit, or None outside a git repository."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _timed_runs(config, trace, runs: int, sampler: SpeedSampler) -> dict:
    """Median reference-speed seconds and accesses/s of vector-engine runs.

    Each run's host time is scaled by the speed factor of the samples
    ``sampler`` took during it; the raw and scaled seconds of every run
    are kept beside the median.
    """
    assert vector_supports(config) is None, config.describe()
    raw = []
    scaled = []
    for _ in range(runs):
        start = time.monotonic()
        begin = time.perf_counter()
        result = run_trace(config, trace, engine="vector")
        elapsed = time.perf_counter() - begin
        factor = speed_factor(sampler.samples, start, time.monotonic())
        assert result.engine == "vector", config.describe()
        raw.append(elapsed)
        scaled.append(elapsed * factor)
    seconds = median(scaled)
    total = trace.total_ops()
    return {
        "seconds": round(seconds, 3),
        "accesses_per_sec": round(total / seconds, 1) if seconds > 0 else None,
        "runs_seconds": [round(s, 3) for s in scaled],
        "runs_raw_seconds": [round(s, 3) for s in raw],
    }


def _trace(workload: str, config, ops_per_core: int) -> PackedTrace:
    return PackedTrace.from_trace(
        build_workload(
            workload, config.num_cores, ops_per_core,
            seed=SEED, block_bytes=config.block_bytes,
        )
    )


def measure_size(
    num_cores: int, ops_per_core: int, runs: int, sampler: SpeedSampler
) -> dict:
    """One weak-scaling point: vector throughput plus directory storage."""
    config = make_config(KIND, ratio=RATIO, num_cores=num_cores, seed=SEED)
    trace = _trace(WORKLOAD, config, ops_per_core)
    timing = _timed_runs(config, trace, runs, sampler)

    storage = {}
    for label, fmt in (
        ("full_bit_vector", SharerFormat.FULL_BIT_VECTOR),
        ("hierarchical", SharerFormat.HIERARCHICAL),
    ):
        cfg = make_config(
            KIND, ratio=RATIO, num_cores=num_cores, seed=SEED,
            sharer_format=fmt,
        )
        estimate = storage_of(cfg)
        storage[label] = {
            "bits_per_entry": estimate.bits_per_entry,
            "bytes_per_core": round(
                estimate.total_bits / 8 / num_cores, 1
            ),
        }

    return {
        "ops_per_core": ops_per_core,
        "total_ops": trace.total_ops(),
        **timing,
        "directory_storage": storage,
    }


def measure_paper_workload(
    ops_per_core: int, runs: int, sampler: SpeedSampler
) -> dict:
    """The miss-bound row: one trace, timed on each directory kind."""
    configs = [
        make_config(kind, ratio=RATIO, num_cores=PAPER_CORES, seed=SEED)
        for kind in PAPER_KINDS
    ]
    trace = _trace(PAPER_WORKLOAD, configs[0], ops_per_core)
    return {
        "workload": PAPER_WORKLOAD,
        "cores": PAPER_CORES,
        "ops_per_core": ops_per_core,
        "total_ops": trace.total_ops(),
        "ratio": RATIO,
        "kinds": {
            config.directory.kind.value: _timed_runs(config, trace, runs, sampler)
            for config in configs
        },
    }


def _warm_up() -> None:
    """Run the engine once, untimed, on a tiny trace.

    The first run in a process pays one-time costs (imports, the
    transition-table derivation) that would otherwise land on the
    16-core row.
    """
    config = make_config(KIND, ratio=RATIO, num_cores=SIZES[0], seed=SEED)
    trace = build_workload(WORKLOAD, SIZES[0], 50, seed=SEED)
    run_trace(config, trace, engine="vector")


def run_report(smoke: bool = False, ops: int | None = None) -> dict:
    ops = ops if ops is not None else (SMOKE_OPS if smoke else FULL_OPS)
    runs = SMOKE_RUNS if smoke else FULL_RUNS
    _warm_up()
    sampler = SpeedSampler().start()
    try:
        payload = {
            "benchmark": "weak_scaling",
            "mode": "smoke" if smoke else "full",
            "workload": WORKLOAD,
            "engine": "vector",
            "kind": KIND.value,
            "ratio": RATIO,
            "seed": SEED,
            "runs": runs,
            "time_unit": "reference-speed seconds (perfbench/measure.py)",
            "cpu_count": os.cpu_count(),
            "commit": _commit(),
            "python": platform.python_version(),
            "sizes": {
                str(num_cores): measure_size(num_cores, ops, runs, sampler)
                for num_cores in SIZES
            },
            "paper_workload": measure_paper_workload(
                max(1, PAPER_OPS * ops // FULL_OPS), runs, sampler
            ),
        }
    finally:
        sampler.stop()
    return payload


def _directory(kind: str, ratio: float) -> str:
    return f"{kind}@{Fraction(ratio).limit_denominator()}"


def render_table(payload: dict) -> str:
    """The report as the markdown block docs/PERFORMANCE.md shows."""
    commit = (payload["commit"] or "unknown")[:7]
    runs = payload["runs"]
    timing = (
        f"median of {runs} runs per row" if runs > 1 else "one run per row"
    )
    lines = [
        f"{payload['mode'].capitalize()} mode, {timing}, in reference-speed "
        f"seconds, on a {payload['cpu_count']}-CPU host "
        f"(Python {payload['python']}, commit `{commit}`).",
        "",
        "| workload | cores | ops/core | directory | seconds | vector acc/s "
        "| dir B/core fbv | hier |",
        "|---|---:|---:|---|---:|---:|---:|---:|",
    ]
    for num_cores, row in payload["sizes"].items():
        storage = row["directory_storage"]
        lines.append(
            f"| {payload['workload']} | {num_cores} | {row['ops_per_core']:,} "
            f"| {_directory(payload['kind'], payload['ratio'])} "
            f"| {row['seconds']:.2f} | {row['accesses_per_sec']:,.0f} "
            f"| {storage['full_bit_vector']['bytes_per_core']:,.0f} "
            f"| {storage['hierarchical']['bytes_per_core']:,.0f} |"
        )
    paper = payload["paper_workload"]
    for kind, row in paper["kinds"].items():
        lines.append(
            f"| {paper['workload']} | {paper['cores']} "
            f"| {paper['ops_per_core']:,} | {_directory(kind, paper['ratio'])} "
            f"| {row['seconds']:.2f} | {row['accesses_per_sec']:,.0f} | | |"
        )
    return "\n".join(lines) + "\n"


def doc_table(text: str) -> str:
    """The block between the marker comments of ``text``."""
    begin = text.index(DOC_BEGIN) + len(DOC_BEGIN) + 1
    return text[begin : text.index(DOC_END, begin)]


def write_report(payload: dict, output: Path = OUTPUT) -> None:
    """Write the report; the committed one also regenerates the doc table."""
    output.write_text(json.dumps(payload, indent=1) + "\n")
    if output.resolve() == OUTPUT:
        text = DOC.read_text()
        old = doc_table(text)
        DOC.write_text(text.replace(
            DOC_BEGIN + "\n" + old, DOC_BEGIN + "\n" + render_table(payload), 1
        ))


# ---------------------------------------------------------------- pytest entry

def test_weak_scaling(benchmark):
    """Measure the sweep, write BENCH_scaling.json, check the shape.

    Host-independent claims: every size and every kind of the
    paper-workload row produced a positive rate, and hierarchical storage
    per core shrinks relative to the full bit vector as the machine grows.
    """
    from benchmarks.conftest import once

    payload = once(benchmark, lambda: run_report(smoke=False))
    write_report(payload)
    assert set(payload["sizes"]) == {str(n) for n in SIZES}
    ratios = []
    for num_cores in SIZES:
        row = payload["sizes"][str(num_cores)]
        assert row["accesses_per_sec"] and row["accesses_per_sec"] > 0, num_cores
        storage = row["directory_storage"]
        ratios.append(
            storage["hierarchical"]["bytes_per_core"]
            / storage["full_bit_vector"]["bytes_per_core"]
        )
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    paper = payload["paper_workload"]
    assert set(paper["kinds"]) == {kind.value for kind in PAPER_KINDS}
    for kind, row in paper["kinds"].items():
        assert row["accesses_per_sec"] and row["accesses_per_sec"] > 0, kind
    assert json.loads(OUTPUT.read_text()) == payload
    assert doc_table(DOC.read_text()) == render_table(payload)


# ---------------------------------------------------------------- CLI entry

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short traces; numbers are not cross-run comparable",
    )
    parser.add_argument(
        "--ops", type=int, default=None,
        help="override weak-scaling ops per core (the paper-workload row "
        "scales with it)",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT,
        help=f"report path (default: {OUTPUT})",
    )
    args = parser.parse_args(argv)

    payload = run_report(smoke=args.smoke, ops=args.ops)
    write_report(payload, args.output)
    print(f"wrote {args.output}")
    for num_cores in SIZES:
        row = payload["sizes"][str(num_cores)]
        storage = row["directory_storage"]
        print(
            f"  {num_cores:>5} cores:"
            f"  vector {row['accesses_per_sec']:>12,.0f} acc/s"
            f"  dir B/core: fbv"
            f" {storage['full_bit_vector']['bytes_per_core']:,.0f}"
            f" / hier {storage['hierarchical']['bytes_per_core']:,.0f}"
        )
    paper = payload["paper_workload"]
    for kind, row in paper["kinds"].items():
        print(
            f"  {paper['workload']} {paper['cores']} x {paper['ops_per_core']}"
            f" {_directory(kind, paper['ratio'])}:"
            f"  {row['seconds']:.2f} s, {row['accesses_per_sec']:,.0f} acc/s"
        )
    if payload["mode"] == "smoke":
        print("  (smoke mode: shape check only, not comparable)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
