"""Weak-scaling benchmark: core count as a sweep axis, 16 to 1024 cores.

The paper's scaling argument (§6) is about what happens to a directory as
the machine grows; this benchmark makes the simulator itself answer at
those sizes.  For each core count it runs the ``weakscale-like`` workload
(fixed ops *per core*, so total work grows with the machine) through the
vector engine and records:

* ``accesses_per_sec`` (simulator throughput), and
* directory ``bytes_per_core`` from the storage model
  (:func:`repro.energy.area.storage_of`) for the full-bit-vector and the
  SCD-style hierarchical sharer formats — the O(N) vs O(sqrt(N) * log N)
  storage story that motivates the scaling work.

The report lands in ``BENCH_scaling.json`` at the repository root, with
the host and the commit it ran on.  Full mode is the comparable one;
``--smoke`` shrinks traces for CI shape-checking.

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
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

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

KIND = DirectoryKind.STASH
RATIO = 0.125
SEED = 1
WORKLOAD = "weakscale-like"

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = ROOT / "BENCH_scaling.json"


def _commit():
    """The checkout's HEAD commit, or None outside a git repository."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def measure_size(num_cores: int, ops_per_core: int) -> dict:
    """One weak-scaling point: vector throughput plus directory storage."""
    config = make_config(KIND, ratio=RATIO, num_cores=num_cores, seed=SEED)
    assert vector_supports(config) is None, num_cores
    trace = PackedTrace.from_trace(
        build_workload(
            WORKLOAD, num_cores, ops_per_core,
            seed=SEED, block_bytes=config.block_bytes,
        )
    )
    total = trace.total_ops()

    start = time.perf_counter()
    result = run_trace(config, trace, engine="vector")
    elapsed = time.perf_counter() - start
    assert result.engine == "vector", num_cores

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
        "total_ops": total,
        "accesses_per_sec": round(total / elapsed, 1) if elapsed > 0 else None,
        "directory_storage": storage,
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
    _warm_up()
    payload = {
        "benchmark": "weak_scaling",
        "mode": "smoke" if smoke else "full",
        "workload": WORKLOAD,
        "engine": "vector",
        "kind": KIND.value,
        "ratio": RATIO,
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "python": platform.python_version(),
        "sizes": {
            str(num_cores): measure_size(num_cores, ops)
            for num_cores in SIZES
        },
    }
    return payload


def write_report(payload: dict, output: Path = OUTPUT) -> None:
    output.write_text(json.dumps(payload, indent=1) + "\n")


# ---------------------------------------------------------------- pytest entry

def test_weak_scaling(benchmark):
    """Measure the sweep, write BENCH_scaling.json, check the shape.

    Host-independent claims: every size produced a positive rate, and
    hierarchical storage per core shrinks relative to the full bit
    vector as the machine grows.
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
    assert json.loads(OUTPUT.read_text()) == payload


# ---------------------------------------------------------------- CLI entry

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="short traces; numbers are not cross-run comparable",
    )
    parser.add_argument(
        "--ops", type=int, default=None,
        help="override ops per core",
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
    if payload["mode"] == "smoke":
        print("  (smoke mode: shape check only, not comparable)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
