"""cProfile harness for the single-access hot path.

Profiles one full ``run_trace`` of the default 16-core ``mix`` workload for
a chosen directory kind and prints the top functions by internal time —
the view the hot-path work is tuned against.  Use it to check that a change
did not reintroduce per-access allocation, wrapper frames or string-keyed
statistics on the pipeline::

    python tools/profile_hotpath.py                  # sparse, top 25
    python tools/profile_hotpath.py stash --top 40
    python tools/profile_hotpath.py cuckoo --sort cumtime
    python tools/profile_hotpath.py sparse --ops 6000 --callers
    python tools/profile_hotpath.py stash --cores 256 \
        --workload weakscale-like --engine vector     # scaling regime

Interpreting the output: the top entries should be the simulator run loop,
``CacheArray.lookup``, ``Network.send`` and the L1/home controllers.  Red
flags are ``GrantResult``/dataclass constructors, ``MesiState.__new__``,
``StatGroup.add`` or route/hash helpers showing per-access call counts.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.analysis.experiments import make_config
from repro.common.config import DirectoryKind
from repro.sim.simulator import run_trace
from repro.workloads.suite import build_workload

KINDS = {
    "sparse": DirectoryKind.SPARSE,
    "cuckoo": DirectoryKind.CUCKOO,
    "hierarchical": DirectoryKind.SCD,
    "ideal": DirectoryKind.IDEAL,
    "stash": DirectoryKind.STASH,
}


def profile_run(
    kind: str,
    ops_per_core: int,
    ratio: float,
    workload: str,
    seed: int,
    num_cores: int = 0,
    engine: str = "interp",
) -> cProfile.Profile:
    """Profile one run_trace invocation; returns the filled profiler."""
    if num_cores:
        config = make_config(KINDS[kind], ratio=ratio, num_cores=num_cores)
    else:
        config = make_config(KINDS[kind], ratio=ratio)
    trace = build_workload(
        workload, config.num_cores, ops_per_core,
        seed=seed, block_bytes=config.block_bytes,
    )
    profiler = cProfile.Profile()
    profiler.enable()
    run_trace(config, trace, engine=engine)
    profiler.disable()
    return profiler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", nargs="?", default="sparse", choices=sorted(KINDS))
    parser.add_argument("--ops", type=int, default=3000, help="ops per core")
    parser.add_argument("--ratio", type=float, default=0.5, help="provisioning ratio")
    parser.add_argument("--workload", default="mix")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--cores", type=int, default=0,
        help="core count (0 = the default 16-core evaluation machine); "
             "scaling-regime profiles pair this with --engine vector",
    )
    parser.add_argument(
        "--engine", default="interp",
        choices=["interp", "vector"],
        help="execution engine to profile",
    )
    parser.add_argument("--top", type=int, default=25, help="rows to print")
    parser.add_argument(
        "--sort", default="tottime", choices=["tottime", "cumtime", "ncalls"],
    )
    parser.add_argument(
        "--callers", action="store_true",
        help="also print who calls the top functions",
    )
    parser.add_argument(
        "--dump", type=Path, default=None,
        help="write raw pstats data here (for snakeviz etc.)",
    )
    args = parser.parse_args(argv)

    profiler = profile_run(
        args.kind, args.ops, args.ratio, args.workload, args.seed,
        num_cores=args.cores, engine=args.engine,
    )

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.callers:
        stats.print_callers(args.top)
    print(stream.getvalue())
    if args.dump is not None:
        stats.dump_stats(args.dump)
        print(f"raw profile written to {args.dump}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
