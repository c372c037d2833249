"""Command-line interface: ``python -m repro`` or the ``repro-sim`` script.

Subcommands:

* ``run`` — simulate one (workload, directory, ratio) point and print the
  result summary.
* ``sweep`` — provisioning sweep over one workload for several
  organizations (figure F3 as a command).
* ``characterize`` — print workload sharing profiles (figure F1).
* ``experiment`` — regenerate one experiment by its id in
  :data:`repro.analysis.experiments.EXPERIMENTS` (DESIGN.md's index).
* ``gen-trace`` — write a suite workload to a CSV trace file.
* ``replay`` — simulate a CSV trace file.
* ``fuzz`` — differential fuzzing: adversarial multi-core programs on an
  engine × organization matrix over a tiny, conflict-dense system, with
  the invariant suite checked as they run.
* ``timeline`` — observed sparse-vs-stash divergence timeline: epoch
  time-series tables plus Perfetto trace exports (repro.obs).
* ``compare`` — side-by-side diff of result files saved with ``--save``.
* ``report`` — regenerate the whole evaluation into one markdown file.
* ``serve`` — run the campaign service: an async HTTP/JSON API that
  accepts sweep-campaign manifests, executes them on a thread or process
  pool, resumes a resubmitted campaign from the result cache, and
  exposes live Prometheus metrics at ``/metrics`` (see docs/SERVICE.md).

Observability flags on ``run`` and ``replay`` (see docs/OBSERVABILITY.md):
``--obs-epoch N`` samples the epoch time-series, ``--trace-events [CAP]``
records coherence events into a bounded ring, ``--check-invariants [N]``
runs the invariant suite every N ops, and ``--obs-out PREFIX`` names the
export files.

Every command prints plain text (the same tables the benchmark harness
emits) and returns a non-zero exit code on error; a rejected input or a
file it cannot open or write prints ``error: ...`` instead of a
traceback.

Global sweep-engine flags (give them *before* the subcommand):
``--workers N`` fans independent sweep points across N worker processes,
one point per dispatch, ``--cache-dir PATH`` / ``--no-cache`` control the
persistent result cache, and ``--cache-stats`` prints hit-rate/wall-time
counters to stderr (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import analysis
from .analysis import runner
from .analysis.experiments import EXPERIMENTS, make_config, run_experiment
from .analysis.figures import render_series
from .analysis.tables import render_kv, render_table
from .common.config import DirectoryKind, MemoryModel
from .common.errors import ReproError
from .sim.simulator import Simulator, run_trace
from .sim.system import build_system
from .sim.trace import PackedTrace
from .workloads.suite import build_workload, workload_names

def _config_from_args(args: argparse.Namespace):
    return make_config(
        kind=DirectoryKind(args.kind),
        ratio=args.ratio,
        num_cores=args.cores,
        seed=args.seed,
        check_invariants=bool(getattr(args, "check_invariants", 0)),
        moesi=getattr(args, "moesi", False),
    )


def _add_common_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="mix", choices=workload_names())
    parser.add_argument("--cores", type=int, default=16)
    parser.add_argument("--ops", type=int, default=3000, help="ops per core")
    parser.add_argument("--seed", type=int, default=1)


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by ``run`` and ``replay`` (repro.obs)."""
    from .obs import DEFAULT_TRACE_CAPACITY

    parser.add_argument(
        "--obs-epoch", type=int, default=0, metavar="N",
        help="sample the epoch time-series every N ops (0 = off)",
    )
    parser.add_argument(
        "--trace-events", nargs="?", const=DEFAULT_TRACE_CAPACITY, type=int,
        default=0, metavar="CAP",
        help=f"record coherence events in a ring of CAP entries "
             f"(bare flag = {DEFAULT_TRACE_CAPACITY})",
    )
    parser.add_argument(
        "--obs-out", default=None, metavar="PREFIX",
        help="write <PREFIX>.epochs.jsonl/.csv and <PREFIX>.trace.json "
             "(default: derived from --save, else 'obs')",
    )


def _simulate(config, trace, args: argparse.Namespace):
    """Run ``trace`` on the engine the flags pick; returns (result, observer).

    The vector engine needs no :class:`CoherentSystem`, so one is built
    only when the interpreter runs: ``--engine interp``, ``--warmup``, or any
    observer flag.  ``run_trace`` still falls back to the interpreter
    transparently when the config is outside the flat model.
    """
    from .obs import ObsConfig, attach

    obs = ObsConfig(
        epoch_interval=getattr(args, "obs_epoch", 0),
        trace_capacity=getattr(args, "trace_events", 0),
        invariant_interval=getattr(args, "check_invariants", 0) or 0,
        out_prefix=getattr(args, "obs_out", None),
    )
    if args.engine != "interp" and not obs.enabled and not args.warmup:
        return run_trace(config, trace, engine=args.engine), None
    system = build_system(config)
    observer = attach(system, obs)
    simulator = Simulator(system, warmup_ops=args.warmup, observer=observer)
    return simulator.run(trace), observer


def _write_obs(observer, args: argparse.Namespace) -> None:
    """Export the observer's data and print what was written."""
    if observer is None:
        return
    prefix = getattr(args, "obs_out", None)
    if not prefix and (observer.sampler is not None or observer.ring is not None):
        prefix = "obs"
    meta = {
        name: getattr(args, name)
        for name in ("workload", "kind", "ratio", "cores", "ops", "seed")
        if getattr(args, name, None) is not None
    }
    written = observer.write_all(prefix, meta)
    ring = observer.ring
    if ring is not None:
        print(
            f"traced {ring.total} events "
            f"({len(ring)} retained, {ring.dropped} dropped)"
        )
    if observer.sampler is not None:
        print(f"sampled {len(observer.sampler.epochs)} epochs")
    for path in written:
        print(f"wrote {path}")


def _maybe_save(result, args) -> None:
    path = getattr(args, "save", None)
    if path:
        from .analysis.io import save_result

        save_result(result, path)
        print(f"saved result to {path}")


def cmd_run(args: argparse.Namespace) -> int:
    """One simulation point with a full summary."""
    config = _config_from_args(args)
    if args.dram:
        from dataclasses import replace

        config = replace(config, memory_model=MemoryModel.DRAM)
    trace = build_workload(args.workload, args.cores, args.ops, seed=args.seed)
    result, observer = _simulate(config, trace, args)
    print(render_kv(config.describe().items(), title="configuration"))
    print()
    rows = [[key, value] for key, value in result.summary().items()]
    print(render_table(["metric", "value"], rows, title=f"results: {args.workload}"))
    _maybe_save(result, args)
    _write_obs(observer, args)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Provisioning sweep for several organizations on one workload."""
    kinds = [DirectoryKind(k) for k in args.kinds]
    ratios = args.ratios

    def point(kind: DirectoryKind, ratio: float) -> runner.SweepPoint:
        config = make_config(kind, ratio, num_cores=args.cores, seed=args.seed)
        return runner.SweepPoint(args.workload, config, args.ops, args.seed)

    points = {(kind, ratio): point(kind, ratio) for kind in kinds for ratio in ratios}
    baseline, *results = runner.run_points(
        [point(DirectoryKind.SPARSE, 1.0), *points.values()]
    )
    normalized = {
        cell: result.normalized_time(baseline) for cell, result in zip(points, results)
    }
    series = {
        kind.value: [normalized[kind, ratio] for ratio in ratios] for kind in kinds
    }
    x = [f"{r:g}" for r in ratios]
    print(
        render_series(
            f"{args.workload}: normalized execution time vs R (baseline sparse@1)",
            "R", x, series,
        )
    )
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    """Workload sharing profiles (figure F1)."""
    out = analysis.run_characterization(
        args.workloads or "all", ops_per_core=args.ops, num_cores=args.cores
    )
    print(out.text)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Regenerate one experiment from the DESIGN.md index."""
    out = run_experiment(args.id, args.workloads or None, args.ops)
    print(out.text)
    return 0


def cmd_gen_trace(args: argparse.Namespace) -> int:
    """Generate a suite workload into a CSV trace file."""
    trace = build_workload(args.workload, args.cores, args.ops, seed=args.seed)
    trace.to_file(args.output)
    print(f"wrote {trace.total_ops()} ops ({args.cores} cores) to {args.output}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Simulate a CSV trace file."""
    trace = PackedTrace.from_file(args.trace, num_cores=args.cores)
    config = _config_from_args(args)
    result, observer = _simulate(config, trace, args)
    rows = [[key, value] for key, value in result.summary().items()]
    print(render_table(["metric", "value"], rows, title=f"replay: {args.trace}"))
    _maybe_save(result, args)
    _write_obs(observer, args)
    return 0


def _fuzz_options_for_seed(seed: int, args: argparse.Namespace):
    """One deterministic parameterization per seed (cycles the knobs)."""
    from .common.config import SharerFormat
    from .common.mesi import CoherenceProtocol
    from .verify import RunOptions

    formats = (
        SharerFormat.FULL_BIT_VECTOR,
        SharerFormat.COARSE_VECTOR,
        SharerFormat.LIMITED_POINTER,
    )
    return RunOptions(
        num_cores=args.cores if args.cores else (4 if seed % 4 < 2 else 6),
        sharer_format=formats[(seed // 2) % 3],
        coarse_group=4,
        limited_pointers=2,
        protocol=CoherenceProtocol.MOESI if seed % 2 else CoherenceProtocol.MESI,
        check_every=args.check_every,
        clean_eviction_notification=bool(seed & 4),
        discovery_filter_slots=8 if seed % 16 >= 8 else 0,
        seed=seed,
    )


def _fuzz_replay(path: str) -> int:
    """Replay one serialized fuzz case; report whether it reproduces."""
    from .verify import FAULTS, load_case, run_differential
    from .verify.corpus import SEED_CATEGORY

    case = load_case(path)
    divergences = run_differential(
        case.program,
        kinds=[DirectoryKind(case.kind)],
        options=case.options,
        fault=FAULTS[case.fault] if case.fault else None,
    )
    fault_note = f" fault={case.fault}" if case.fault else ""
    print(
        f"replaying {path}: kind={case.kind} category={case.category}"
        f"{fault_note} ({len(case.program)} ops)"
    )
    if case.category == SEED_CATEGORY:
        if divergences:
            for divergence in divergences:
                print(f"  {divergence}", file=sys.stderr)
            print("seed case FAILED: regression program diverged", file=sys.stderr)
            return 1
        print("seed case clean: no divergence (expected)")
        return 0
    matches = [
        d for d in divergences if d.signature == (case.kind, case.category)
    ]
    if matches:
        print(f"reproduced: {matches[0]}")
        return 1
    for divergence in divergences:
        print(f"  other divergence: {divergence}")
    print("did not reproduce the recorded failure")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing: an engine × organization matrix per program.

    Generates adversarial flat programs (eviction storms, stash/discovery
    races, pointer overflow, coarse-group aliasing, set pile-ups) and runs
    each on a matrix: rows are IDEAL plus every requested organization,
    columns are the interpreter, the vector engine's flat machine op by
    op, and the vector engine's run loop over the whole trace.
    Interpreter cells are diffed against IDEAL (observed data versions,
    the invariant suite, final architectural state); vector cells must
    match the interpreter bit-for-bit, statistics included.  A divergence
    is delta-debugged down to a minimal program, serialized under the
    failure corpus and printed with a one-command reproduction line.  See
    docs/VERIFICATION.md.
    """
    from collections import Counter

    from .common.rng import DeterministicRng
    from .verify import (
        COLUMNS,
        FAULTS,
        PROFILES,
        FailureCase,
        generate_program,
        minimize,
        repro_command,
        run_differential,
        save_case,
        seed_corpus,
    )

    if args.list_faults:
        for name in sorted(FAULTS):
            spec = FAULTS[name]
            print(f"{name} (corrupts {spec.corrupts}): {spec.description}")
        return 0
    for flag, names, valid in (
        ("--inject-fault", [args.inject_fault] if args.inject_fault else [], FAULTS),
        ("--profiles", args.profiles or [], PROFILES),
    ):
        unknown = [name for name in names if name not in valid]
        if unknown:
            print(
                f"error: {flag}: unknown name {unknown[0]!r} "
                f"(valid: {', '.join(valid)})",
                file=sys.stderr,
            )
            return 2
    if args.replay:
        return _fuzz_replay(args.replay)

    out_dir = args.out_dir
    if args.seed_corpus:
        for path in seed_corpus(out_dir):
            print(f"planted seed case {path}")
            code = _fuzz_replay(str(path))
            if code:
                return code

    kinds = [DirectoryKind.IDEAL, *(DirectoryKind(k) for k in args.kinds)]
    fault = FAULTS[args.inject_fault] if args.inject_fault else None
    profiles = args.profiles or list(PROFILES)
    failures = 0
    cells: Counter = Counter()
    for offset in range(args.seeds):
        seed = args.seed_base + offset
        options = _fuzz_options_for_seed(seed, args)
        profile = profiles[offset % len(profiles)]
        program = generate_program(
            profile, options.num_cores, args.ops, DeterministicRng(seed)
        )
        divergences = run_differential(
            program, kinds=kinds, options=options, fault=fault
        )
        cells.update(divergences.cells)
        if not divergences:
            continue
        failures += len(divergences)
        divergence = divergences[0]
        print(
            f"seed {seed} profile={profile} "
            f"format={options.sharer_format.value} "
            f"protocol={options.protocol.value}: {divergence}",
            file=sys.stderr,
        )
        minimal = list(program)
        if args.minimize:
            signature = divergence.signature
            replay_kinds = [DirectoryKind(divergence.kind)]

            def _still_fails(candidate) -> bool:
                again = run_differential(
                    candidate, kinds=replay_kinds, options=options, fault=fault
                )
                return any(d.signature == signature for d in again)

            minimal = minimize(program, _still_fails)
            print(
                f"minimized {len(program)} -> {len(minimal)} ops",
                file=sys.stderr,
            )
        case = FailureCase(
            program=minimal,
            kind=divergence.kind,
            category=divergence.category,
            detail=divergence.detail,
            options=options,
            profile=profile,
            fault=args.inject_fault,
        )
        path = save_case(case, out_dir)
        print(f"saved repro case: {path}", file=sys.stderr)
        print(f"reproduce with: {repro_command(path)}", file=sys.stderr)
    ran = ", ".join(f"{column} {cells[column]}" for column in COLUMNS)
    print(f"cells per column: {ran}")
    if failures:
        print(
            f"FUZZ FAILURE: {failures} divergence(s) across "
            f"{args.seeds} seeds x {args.ops} ops",
            file=sys.stderr,
        )
        return 1
    print(
        f"fuzzed {args.seeds} programs x {args.ops} ops "
        f"({len(kinds)} organizations): all organizations agree with ideal "
        "and every engine with the interpreter bit-for-bit; "
        "all invariants held"
    )
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """Observed sparse-vs-stash divergence timeline at one ratio.

    Runs both organizations with the epoch sampler and event tracer
    attached, prints per-epoch divergence tables and writes the Perfetto
    trace + epoch series next to the given prefix.
    """
    from .analysis.timeline import run_timeline

    out = run_timeline(
        workload=args.workload,
        ratio=args.ratio,
        num_cores=args.cores,
        ops_per_core=args.ops,
        seed=args.seed,
        out_prefix=args.out,
        epoch_interval=args.obs_epoch,
        trace_capacity=args.trace_events,
    )
    print(out.text)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Side-by-side comparison of saved result files (first is baseline)."""
    from pathlib import Path

    from .analysis.io import compare_results, load_result

    results = {Path(path).stem: load_result(path) for path in args.results}
    print(compare_results(results, title="saved-run comparison"))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate every experiment into a single markdown report."""
    from .analysis.report import generate_report

    workloads = "all" if args.full else None
    written = generate_report(
        args.output,
        workloads=workloads,
        ops_per_core=args.ops,
        sections=args.sections,
        progress=lambda exp_id: print(f"running {exp_id} ..."),
    )
    print(f"wrote {len(written)} sections to {args.output}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the campaign service until SIGINT/SIGTERM.

    Boots the asyncio HTTP server of :mod:`repro.service` on the given
    address, running submitted campaigns on the selected dispatch
    backend, whose workers start with the server.  The global
    sweep-engine flags apply: ``--workers`` sizes the backend (0 = auto)
    and ``--cache-dir``/``--no-cache`` control the shared result cache.
    That cache is the only record of a finished point, so a restarted
    server resumes a resubmitted campaign from it, and under
    ``--no-cache`` recomputes every point.
    """
    import asyncio

    from .service import ServiceConfig, serve_forever

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        backend=args.service_backend,
        workers=args.workers or 0,
        cache_dir=args.cache_dir,
        cache_enabled=not args.no_cache,
        max_points=args.max_points,
    )

    def _ready(port: int, service) -> None:
        print(
            f"campaign service listening on http://{config.host}:{port} "
            f"(backend={config.backend}, workers={service.workers})",
            flush=True,
        )

    return asyncio.run(serve_forever(config, ready=_ready))


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Stash Directory (HPCA 2014) reproduction toolkit",
    )
    # Sweep-engine knobs (global: give them before the subcommand).
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for sweep fan-out (default: REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persistent result-cache directory (default: REPRO_CACHE_DIR or .repro_cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result cache for this invocation",
    )
    parser.add_argument(
        "--cache-stats", action="store_true",
        help="print sweep-runner hit-rate/wall-time counters (results, "
             "traces, campaigns) to stderr on exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help=cmd_run.__doc__)
    _add_common_run_args(run)
    run.add_argument("--kind", default="stash", choices=[k.value for k in DirectoryKind])
    run.add_argument("--ratio", type=float, default=0.125)
    run.add_argument("--warmup", type=int, default=0)
    run.add_argument("--dram", action="store_true", help="use the banked DRAM model")
    run.add_argument("--moesi", action="store_true", help="run MOESI instead of MESI")
    run.add_argument(
        "--engine", default="interp", choices=["interp", "vector"],
        help="execution engine (vector = flat table-driven engine; "
             "bit-identical results, falls back when unsupported)",
    )
    run.add_argument(
        "--check-invariants", nargs="?", const=1024, type=int, default=0,
        metavar="N",
        help="run the invariant suite every N ops (bare flag = 1024)",
    )
    run.add_argument("--save", metavar="PATH", help="write the result as JSON")
    _add_obs_args(run)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help=cmd_sweep.__doc__)
    _add_common_run_args(sweep)
    sweep.add_argument(
        "--kinds", nargs="+", default=["sparse", "cuckoo", "stash"],
        choices=[k.value for k in DirectoryKind],
    )
    sweep.add_argument(
        "--ratios", nargs="+", type=float, default=[1.0, 0.5, 0.25, 0.125]
    )
    sweep.set_defaults(func=cmd_sweep)

    character = sub.add_parser("characterize", help=cmd_characterize.__doc__)
    character.add_argument("--workloads", nargs="*", choices=workload_names())
    character.add_argument("--cores", type=int, default=16)
    character.add_argument("--ops", type=int, default=2000)
    character.set_defaults(func=cmd_characterize)

    experiment = sub.add_parser("experiment", help=cmd_experiment.__doc__)
    experiment.add_argument("id", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--ops", type=int, default=None)
    experiment.add_argument("--workloads", nargs="*", default=None)
    experiment.set_defaults(func=cmd_experiment)

    gen = sub.add_parser("gen-trace", help=cmd_gen_trace.__doc__)
    _add_common_run_args(gen)
    gen.add_argument("output")
    gen.set_defaults(func=cmd_gen_trace)

    replay = sub.add_parser("replay", help=cmd_replay.__doc__)
    replay.add_argument("trace")
    replay.add_argument("--cores", type=int, default=16)
    replay.add_argument("--kind", default="stash", choices=[k.value for k in DirectoryKind])
    replay.add_argument("--ratio", type=float, default=0.125)
    replay.add_argument("--seed", type=int, default=1)
    replay.add_argument("--warmup", type=int, default=0)
    replay.add_argument(
        "--engine", default="interp", choices=["interp", "vector"],
        help="execution engine (vector = flat table-driven engine)",
    )
    replay.add_argument(
        "--check-invariants", nargs="?", const=1024, type=int, default=0,
        metavar="N",
        help="run the invariant suite every N ops (bare flag = 1024)",
    )
    replay.add_argument("--save", metavar="PATH", help="write the result as JSON")
    _add_obs_args(replay)
    replay.set_defaults(func=cmd_replay)

    fuzz = sub.add_parser("fuzz", help=cmd_fuzz.__doc__)
    fuzz.add_argument("--ops", type=int, default=400, help="ops per program")
    fuzz.add_argument("--seeds", type=int, default=10, help="programs to run")
    fuzz.add_argument("--seed-base", type=int, default=1, help="first seed")
    fuzz.add_argument(
        "--kinds", nargs="+",
        default=[
            "sparse", "cuckoo", "scd", "stash", "adaptive_stash", "in_llc",
            "tardis",
        ],
        choices=[k.value for k in DirectoryKind if k.value != "ideal"],
        help="organizations to run as matrix rows (IDEAL always runs)",
    )
    fuzz.add_argument(
        "--profiles", nargs="+", default=None, metavar="PROFILE",
        help="generator profiles to cycle (default: all)",
    )
    fuzz.add_argument(
        "--cores", type=int, default=0,
        help="core count (default 0 = cycle 4 and 6 across seeds)",
    )
    fuzz.add_argument(
        "--check-every", type=int, default=8, metavar="N",
        help="run the invariant suite every N ops (0 = only at the end)",
    )
    fuzz.add_argument(
        "--minimize", action=argparse.BooleanOptionalAction, default=True,
        help="delta-debug failing programs before serializing them",
    )
    fuzz.add_argument(
        "--inject-fault", default=None, metavar="NAME",
        help="inject a named test-only fault into the cells it corrupts "
             "(see --list-faults)",
    )
    fuzz.add_argument(
        "--list-faults", action="store_true",
        help="list injectable fault names and exit",
    )
    fuzz.add_argument(
        "--out-dir", default=None, metavar="PATH",
        help="failure-corpus directory (default: <cache-dir>/failures)",
    )
    fuzz.add_argument(
        "--replay", default=None, metavar="FILE",
        help="replay one serialized repro case and exit",
    )
    fuzz.add_argument(
        "--seed-corpus", action="store_true",
        help="plant + replay the distilled regression programs first",
    )
    fuzz.set_defaults(func=cmd_fuzz)

    timeline = sub.add_parser("timeline", help=cmd_timeline.__doc__)
    _add_common_run_args(timeline)
    timeline.add_argument("--ratio", type=float, default=0.125)
    timeline.add_argument(
        "--out", default="timeline", metavar="PREFIX",
        help="export prefix (<PREFIX>.<kind>.epochs.jsonl/.csv, .trace.json)",
    )
    timeline.add_argument(
        "--obs-epoch", type=int, default=256, metavar="N",
        help="epoch-sampler interval in ops",
    )
    timeline.add_argument(
        "--trace-events", type=int, default=65536, metavar="CAP",
        help="event-ring capacity per run",
    )
    timeline.set_defaults(func=cmd_timeline)

    compare = sub.add_parser("compare", help=cmd_compare.__doc__)
    compare.add_argument("results", nargs="+", help="JSON files from --save")
    compare.set_defaults(func=cmd_compare)

    report = sub.add_parser("report", help=cmd_report.__doc__)
    report.add_argument("output", help="markdown file to write")
    report.add_argument("--ops", type=int, default=2000, help="ops per core")
    report.add_argument(
        "--full", action="store_true",
        help="use the full workload suite (default: quick 3-workload subset)",
    )
    report.add_argument(
        "--sections", nargs="+", default=None, choices=sorted(EXPERIMENTS),
        help="restrict to specific experiment ids (e.g. F3 headline)",
    )
    report.set_defaults(func=cmd_report)

    serve = sub.add_parser("serve", help=cmd_serve.__doc__)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="bind port (0 = pick an ephemeral port)",
    )
    serve.add_argument(
        "--backend", dest="service_backend", default="pool",
        choices=["pool", "inproc"],
        help="dispatch backend: 'pool' = process pool (real parallelism), "
             "'inproc' = thread pool (no process spawn)",
    )
    serve.add_argument(
        "--max-points", type=int, default=100_000, metavar="N",
        help="reject manifests expanding to more than N points",
    )
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    previous = runner.configure()
    runner.configure(
        workers=args.workers,
        cache_dir=args.cache_dir,
        cache_enabled=False if args.no_cache else None,
    )
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.cache_stats:
            print(runner.counters_summary(), file=sys.stderr)
        runner.configure(**previous)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
