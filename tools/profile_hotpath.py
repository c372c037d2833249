"""Profile the single-access hot path: cProfile, or a line sampler.

Profiles one full ``run_trace`` of the default 16-core ``mix`` workload for
a chosen directory kind.  It profiles the vector engine, which every sweep
runs, unless ``--engine interp`` asks for the interpreter.  Use it to check
that a change did not reintroduce per-access frames, allocation or
string-keyed statistics::

    python tools/profile_hotpath.py                  # sparse, top 25
    python tools/profile_hotpath.py stash --top 40
    python tools/profile_hotpath.py cuckoo --sort cumtime
    python tools/profile_hotpath.py sparse --ops 6000 --callers
    python tools/profile_hotpath.py stash --cores 256 \
        --workload weakscale-like                   # scaling regime
    python tools/profile_hotpath.py sparse --engine interp
    python tools/profile_hotpath.py stash --engine interp --sample

Two views.  The default is cProfile's table of functions by internal
time.  Its per-call cost inflates a frame-heavy path such as the
interpreter's miss path several times over, and it hides work that opens
no frame of its own, such as an enum member load or a dataclass field
store, in the caller.
``--sample`` instead attributes on-CPU time by function and by line: an
``ITIMER_PROF`` timer (process CPU time, so it acts on this process only)
sends SIGPROF every millisecond of CPU time, and the handler counts the
innermost frame's function and line (self time) and every function on the
stack (inclusive time).  CPython runs a Python signal handler only where
its eval loop checks for pending signals, at calls, returns and loop
back-edges, so a sample lands at the next such point after the timer
fires: the time of a straight run of bytecode is billed to the call or
back-edge that ends it, and a line that calls nothing shows less than it
costs.  Read lines of one function together.  The kernel's timer tick
can make the real interval coarser (the header line prints the samples
and CPU seconds); ``--repeat`` runs the trace again on fresh systems for
more samples of a short run.

Interpreting the output.  A healthy vector profile is
``_FlatMachine._miss`` (a whole L1 miss, LLC miss included, in one
frame), ``VectorEngine.run`` (the interleave and the inlined hit path)
and, for ideal, cuckoo and SCD, the organization's ``_dir_allocate``;
then the invalidation and eviction helpers at their event counts.  Red
flags are an ``_llc_miss``, ``_new_entry``, ``_rep_new`` or
``stride_hash`` frame per miss.  On the interpreter the top entries
should be the simulator run loop, ``CacheArray.lookup``,
``Network.send`` and the L1/home controllers.  Red flags there are
per-access call counts of: a dataclass constructor (an
``AllocationResult`` or ``Eviction`` built through a generated
``__init__``), ``MesiState.__new__``, ``StatGroup.add`` (one per LLC miss
was ``MainMemory.read``'s), route or hash helpers, or a ``_tracked`` or
``_llc_version`` frame on a directory miss (a second lookup of a record
already in hand); in ``--sample`` output, ``Network.send`` lines that
update more than two cells per message.  An enum member load
(``MessageClass.X`` or ``MesiState.X`` inside a function, over 100 ns
each on CPython 3.11) never shows as a frame: cProfile adds it to the
caller's own time.  ``tests/test_enum_member_loads.py`` finds them in the
bytecode, and ``tests/test_miss_path_frames.py`` pins the frames one cold
LLC miss opens.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import signal
import sys
import time
from collections import Counter
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


def _setup(kind, ops_per_core, ratio, workload, seed, num_cores):
    if num_cores:
        config = make_config(KINDS[kind], ratio=ratio, num_cores=num_cores)
    else:
        config = make_config(KINDS[kind], ratio=ratio)
    trace = build_workload(
        workload, config.num_cores, ops_per_core,
        seed=seed, block_bytes=config.block_bytes,
    )
    return config, trace


def profile_run(
    kind: str,
    ops_per_core: int,
    ratio: float,
    workload: str,
    seed: int,
    num_cores: int = 0,
    engine: str = "vector",
) -> cProfile.Profile:
    """Profile one run_trace invocation; returns the filled profiler."""
    config, trace = _setup(kind, ops_per_core, ratio, workload, seed, num_cores)
    profiler = cProfile.Profile()
    profiler.enable()
    run_trace(config, trace, engine=engine)
    profiler.disable()
    return profiler


class LineSampler:
    """On-CPU samples of this process by function and line (``ITIMER_PROF``).

    ``own`` counts the innermost frame's function, ``lines`` its line, and
    ``inclusive`` every distinct function on the stack.  Samples land where
    CPython checks for signals (calls, returns, loop back-edges).
    """

    #: Seconds of process CPU time between timer signals.
    interval = 0.001

    def __init__(self) -> None:
        self.samples = 0
        self.cpu_seconds = 0.0
        self.own: Counter = Counter()
        self.lines: Counter = Counter()
        self.inclusive: Counter = Counter()
        self._previous = None
        self._cpu_start = 0.0

    def _sample(self, signum, frame) -> None:
        if frame is None:  # pragma: no cover - no Python frame to bill
            return
        self.samples += 1
        code = frame.f_code
        name = getattr(code, "co_qualname", code.co_name)
        self.own[(code.co_filename, name)] += 1
        self.lines[(code.co_filename, name, frame.f_lineno)] += 1
        seen = set()
        while frame is not None:
            code = frame.f_code
            key = (code.co_filename, getattr(code, "co_qualname", code.co_name))
            if key not in seen:
                seen.add(key)
                self.inclusive[key] += 1
            frame = frame.f_back

    def __enter__(self) -> "LineSampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._cpu_start = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.cpu_seconds += time.process_time() - self._cpu_start
        signal.signal(signal.SIGPROF, self._previous)

    def report(self, top: int) -> str:
        """The top functions (self and inclusive) and lines, as text."""
        total = self.samples or 1

        def where(path: str) -> str:
            return Path(path).name

        out = [
            f"{self.samples} samples over {self.cpu_seconds:.2f} s of CPU time "
            f"(timer every {self.interval * 1000:g} ms)"
        ]
        out.append(f"\n{'self %':>7} {'incl %':>7}  function")
        for (path, name), count in self.own.most_common(top):
            incl = self.inclusive[(path, name)]
            out.append(
                f"{100 * count / total:7.1f} {100 * incl / total:7.1f}  "
                f"{where(path)}:{name}"
            )
        out.append(f"\n{'self %':>7}  line")
        for (path, name, line), count in self.lines.most_common(top):
            # f_lineno is None at instructions with no source line.
            out.append(
                f"{100 * count / total:7.1f}  {where(path)}:{line or '?'} {name}"
            )
        return "\n".join(out)


def sample_run(
    kind: str,
    ops_per_core: int,
    ratio: float,
    workload: str,
    seed: int,
    num_cores: int = 0,
    engine: str = "vector",
    repeat: int = 1,
) -> LineSampler:
    """Sample ``repeat`` run_trace invocations by line; returns the sampler."""
    config, trace = _setup(kind, ops_per_core, ratio, workload, seed, num_cores)
    with LineSampler() as sampler:
        for _ in range(repeat):
            run_trace(config, trace, engine=engine)
    return sampler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", nargs="?", default="sparse", choices=sorted(KINDS))
    parser.add_argument("--ops", type=int, default=3000, help="ops per core")
    parser.add_argument("--ratio", type=float, default=0.5, help="provisioning ratio")
    parser.add_argument("--workload", default="mix")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--cores", type=int, default=0,
        help="core count (0 = the default 16-core evaluation machine)",
    )
    parser.add_argument(
        "--engine", default="vector",
        choices=["interp", "vector"],
        help="execution engine to profile (default: vector, as sweeps run)",
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
    parser.add_argument(
        "--sample", action="store_true",
        help="attribute on-CPU time by function and line with an "
             "ITIMER_PROF sampler instead of cProfile",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="--sample: runs of the trace, each on a fresh system",
    )
    args = parser.parse_args(argv)

    if args.sample:
        sampler = sample_run(
            args.kind, args.ops, args.ratio, args.workload, args.seed,
            num_cores=args.cores, engine=args.engine, repeat=args.repeat,
        )
        print(sampler.report(args.top))
        return 0
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
