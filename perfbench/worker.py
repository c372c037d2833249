"""One measured unit of a benchmark workload, in a fresh interpreter.

``run.py`` starts this file once per unit, from the root of the
checkout with ``PYTHONPATH=src``::

    python3 perfbench/worker.py <mode> '<json arguments>'

and reads the one JSON object it prints.  Modes:

``warmup``     import the package once (page cache and bytecode cache)
``f3``         one cold F3 sweep on the interpreter engine
``weakscale``  one 1024-core weak-scaling run on the parallel engine
``client``     the campaign-serve load: closed-loop HTTP clients
``campaign-reference``  the campaign points simulated directly

Times come from ``time.monotonic`` (CLOCK_MONOTONIC, shared by every
process on the host), so ``run.py`` can subtract its own spawn time
from a worker's ``start`` to get the set-up time.  With ``"trace":
true`` the worker wraps the entry points each workload calls, keeps the
spans in memory and writes them to ``args["spans"]`` at the end.
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import threading
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from measure import SpanRecorder, SpeedSampler, digest, result_digest  # noqa: E402

#: Provisioning ratios of the F3 sweep (R = 1, 1/2, 1/4, 1/8).
F3_RATIOS = [1.0, 0.5, 0.25, 0.125]

now = time.monotonic


def peak_rss_mb(pid="self") -> float:
    """Peak resident set of one process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def summary_of(result) -> Dict[str, float]:
    """The point summary the service reports, plus the access count."""
    out = dict(result.summary())
    out["accesses"] = result.total_accesses
    return out


class Patches:
    """Module and class attributes swapped for traced wrappers."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.saved: List[tuple] = []

    def wrap(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.recorder.wrap(name, original, **hooks))
        self.saved.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def _trace_tag(workload, num_cores, ops_per_core, seed=1, *args, **kwargs) -> str:
    return f"{workload}/{num_cores}x{ops_per_core}/seed{seed}"


def _point_tag(config, trace, **kwargs) -> str:
    return f"{config.directory.kind.value}/{config.directory.coverage_ratio:g}"


def _trace_note(out, *args, **kwargs) -> Dict:
    from repro.workloads import store

    return {"ops": out.total_ops(), "generated": store.counters.generated}


def _run_note(out, *args, **kwargs) -> Dict:
    return {
        "engine": out.engine,
        "kind": out.config.directory.kind.value,
        "accesses": out.total_accesses,
    }


def _finish_trace(recorder: Optional[SpanRecorder], args: Dict, meta: Dict) -> None:
    if recorder is not None:
        recorder.dump(args["spans"], meta)


# ------------------------------------------------------------------ f3-cold

def f3_points(experiments, runner, ops: int, seed: int) -> Dict[str, object]:
    """Every point run_performance_sweep simulates, keyed workload/kind/R."""
    points = {}
    for name in experiments.QUICK_WORKLOADS:
        for kind in experiments.KINDS:
            ratios = F3_RATIOS[:1] if kind.value == "ideal" else F3_RATIOS
            for ratio in ratios:
                config = experiments.make_config(kind, ratio)
                points[f"{name}/{kind.value}/{ratio:g}"] = runner.SweepPoint(
                    name, config, ops, seed
                )
    return points


def run_f3(args: Dict) -> Dict:
    from repro.analysis import experiments, runner
    from repro.sim import simulator
    from repro.workloads import store

    runner.configure(
        workers=1,
        cache_dir=args["cache_dir"],
        cache_enabled=True,
        trace_cache_enabled=False,
    )
    if args.get("setup_only"):
        return {"start": now()}
    sweep = experiments.run_performance_sweep
    recorder = patches = None
    if args["trace"]:
        recorder = SpanRecorder(clock=now)
        patches = Patches(recorder)
        patches.wrap(runner, "run_points", "runner.run_points")
        patches.wrap(store, "get_packed_trace", "workloads.get_packed_trace",
                     tag_of=_trace_tag, note_of=_trace_note)
        patches.wrap(runner, "run_trace", "simulator.run_trace",
                     tag_of=_point_tag, note_of=_run_note)
        patches.wrap(simulator, "build_system", "simulator.build_system")
        patches.wrap(runner.DiskCache, "store", "runner.disk_store")
        patches.wrap(runner.DiskCache, "load", "runner.disk_load")
        sweep = recorder.wrap("experiments.run_performance_sweep", sweep)

    start = now()
    out = sweep(ratios=F3_RATIOS, ops_per_core=args["ops"], seed=args["seed"])
    end = now()
    if patches is not None:
        patches.restore()
    counters = runner.counters
    layer_counts = {
        "hit_rate": counters.hit_rate,
        "computed": counters.computed,
        "disk_hits": counters.disk_hits,
        "traces_generated": store.counters.generated,
    }
    rss = peak_rss_mb()

    # Every point again, now served by the memo: the identity check.
    points = f3_points(experiments, runner, args["ops"], args["seed"])
    results = runner.run_points(list(points.values()))
    _finish_trace(recorder, args, {"workload": "f3-cold", "seed": args["seed"]})
    return {
        "start": start,
        "end": end,
        "rss_mb": rss,
        "headline": out.data["series"]["stash"][F3_RATIOS.index(0.125)],
        "series": digest(out.data),
        "points": {key: result_digest(r) for key, r in zip(points, results)},
        "summaries": [summary_of(r) for r in results],
        "counts": layer_counts,
    }


# ----------------------------------------------------------- weakscale-1024

def run_weakscale(args: Dict) -> Dict:
    from repro.analysis.experiments import make_config
    from repro.common.config import DirectoryKind
    from repro.sim.parallel import ParallelEngine
    from repro.workloads import store

    recorder = SpanRecorder(clock=now) if args["trace"] else None
    get_trace = store.get_packed_trace
    if recorder is not None:
        get_trace = recorder.wrap("workloads.get_packed_trace", get_trace,
                                  tag_of=_trace_tag, note_of=_trace_note)
    config = make_config(DirectoryKind.STASH, 0.125, args["cores"])
    trace = get_trace(
        "weakscale-like", args["cores"], args["ops"], seed=args["seed"],
        disk_enabled=False,
    )
    if args.get("setup_only"):
        return {"start": now()}
    # Constructed directly, exactly as run_trace does for engine="parallel".
    engine = ParallelEngine(config, workers="auto", speculate=True)
    run = engine.run
    if recorder is not None:
        run = recorder.wrap("parallel.run", run, note_of=_run_note,
                            tag_of=lambda trace: _point_tag(config, trace))

    start = now()
    result = run(trace)
    end = now()
    rss = peak_rss_mb()
    out = {
        "start": start,
        "end": end,
        "rss_mb": rss,
        "result": result_digest(result),
        "execution_time": result.execution_time,
        "summaries": [summary_of(result)],
        "counts": {
            "traces_generated": store.counters.generated,
            "spec": dict(engine.spec_stats),
            "heap": dict(engine.heap_stats),
            "ops": trace.total_ops(),
        },
    }
    if args.get("cross_check"):
        from repro.sim.simulator import run_trace

        vector = run_trace(config, trace, engine="vector")
        out["vector"] = result_digest(vector)
    _finish_trace(recorder, args, {"workload": "weakscale-1024", "seed": args["seed"]})
    return out


# ------------------------------------------------------------ campaign-serve

class Client:
    """Closed-loop campaign clients sharing one queue of campaigns.

    Each connection POSTs a campaign, streams its NDJSON to the last
    line, then takes the next campaign.  A campaign with ``after`` set
    re-submits an earlier grid and first waits until that campaign has
    finished, so its points are result-cache reads on every run.
    """

    def __init__(self, args: Dict) -> None:
        self.host = args["host"]
        self.port = args["port"]
        self.campaigns = args["campaigns"]
        self.trace = args["trace"]
        self.lock = threading.Lock()
        self.next = 0
        self.finished = [threading.Event() for _ in self.campaigns]
        self.records: List[Optional[Dict]] = [None] * len(self.campaigns)
        self.recorders: List[SpanRecorder] = []
        self.http_errors: List[str] = []

    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=300)

    def request(self, recorder, name: str, method: str, path: str,
                body: Optional[bytes] = None, on_line=None, lines: int = 0,
                tag: str = ""):
        """One HTTP call; returns (status, body or None when streamed).

        A stream is read for ``lines`` NDJSON lines, not to end of file:
        a pool worker forked while the connection is open inherits the
        server's socket, so the server's close alone never ends it.
        """
        index = recorder.open(name, tag) if recorder is not None else -1
        conn = self._connection()
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            if on_line is None:
                return resp.status, resp.read()
            while lines > 0:
                line = resp.readline()
                if not line:
                    break
                if line.strip():
                    on_line(now(), json.loads(line))
                    lines -= 1
            return resp.status, None
        finally:
            conn.close()
            if recorder is not None:
                recorder.close(index)

    def _one(self, recorder, number: int) -> None:
        spec = self.campaigns[number]
        if spec["after"] is not None:
            self.finished[spec["after"]].wait(600)
        record = {"lines": [], "first": None, "last": None}
        record["post_start"] = now()
        status, body = self.request(
            recorder, "http.post", "POST", "/campaigns",
            json.dumps(spec["manifest"]).encode("utf-8"), tag=str(number),
        )
        record["post_end"] = now()
        if status not in (200, 201):
            self.http_errors.append(f"POST campaign {number}: {status}")
            self.records[number] = record
            return
        submitted = json.loads(body)

        def on_line(stamp: float, line: Dict) -> None:
            if record["first"] is None:
                record["first"] = stamp
            record["last"] = stamp
            record["lines"].append([stamp, line])

        status, _ = self.request(
            recorder, "http.stream", "GET", f"/campaigns/{submitted['id']}/stream",
            on_line=on_line, lines=submitted["total_points"], tag=str(number),
        )
        if status != 200:
            self.http_errors.append(f"stream campaign {number}: {status}")
        self.records[number] = record

    def _loop(self, recorder) -> None:
        while True:
            with self.lock:
                number = self.next
                self.next += 1
            if number >= len(self.campaigns):
                return
            try:
                self._one(recorder, number)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                self.http_errors.append(f"campaign {number}: {exc!r}")
            finally:
                self.finished[number].set()

    def run(self, connections: int) -> None:
        threads = []
        for _ in range(connections):
            recorder = SpanRecorder(clock=now) if self.trace else None
            if recorder is not None:
                self.recorders.append(recorder)
            threads.append(threading.Thread(target=self._loop, args=(recorder,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def scrape(self, times: int) -> Dict:
        """Time ``GET /metrics`` a few times once the load has drained."""
        recorder = SpanRecorder(clock=now) if self.trace else None
        if recorder is not None:
            self.recorders.append(recorder)
        seconds, text = [], ""
        for _ in range(times):
            begin = now()
            status, body = self.request(recorder, "http.metrics", "GET", "/metrics")
            seconds.append(now() - begin)
            if status != 200:
                self.http_errors.append(f"GET /metrics: {status}")
            text = body.decode("utf-8")
        values = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return {"seconds": seconds, "values": values}

    def spans(self) -> List[list]:
        """Every recorder's spans in one list, parent links re-based."""
        merged: List[list] = []
        for recorder in self.recorders:
            base = len(merged)
            for span in recorder.spans:
                span = list(span)
                if span[3] >= 0:
                    span[3] += base
                merged.append(span)
        return merged


def run_client(args: Dict) -> Dict:
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        # Beside the server, off the pool worker's CPU (see serve.py).
        os.sched_setaffinity(0, {cpus[0]})
    client = Client(args)
    start = now()
    client.run(args["connections"])
    end = now()
    scrape = client.scrape(args["scrapes"])
    if args["trace"]:
        with open(args["spans"], "w") as handle:
            json.dump({"meta": {"workload": "campaign-serve"},
                       "spans": client.spans()}, handle)
    return {
        "start": start,
        "end": end,
        "records": client.records,
        "http_errors": client.http_errors,
        "scrape": scrape,
    }


def run_campaign_reference(args: Dict) -> Dict:
    """Every distinct campaign point simulated directly on the interpreter."""
    from repro.analysis import runner
    from repro.service.manifest import CampaignManifest

    runner.configure(workers=1, cache_enabled=False, trace_cache_enabled=False)
    summaries = {}
    for manifest in args["manifests"]:
        specs = CampaignManifest.from_dict(manifest).expand()
        for spec in specs:
            point = spec.point
            result = runner.run_points([
                runner.SweepPoint(point.workload, point.config,
                                  point.ops_per_core, point.seed)
            ])[0]
            labels = spec.labels
            if result.total_accesses != labels["cores"] * labels["ops"]:
                raise RuntimeError(f"unexpected access count at {labels}")
            summaries[point_key(labels)] = digest(result.summary(), 16)
    return {"summaries": summaries}


def point_key(labels: Dict) -> str:
    """Engine-blind identity of one campaign point."""
    return f"{labels['kind']}/{labels['ratio']:g}/{labels['seed']}"


MODES = {
    "warmup": lambda args: {"start": now()},
    "f3": run_f3,
    "weakscale": run_weakscale,
    "client": run_client,
    "campaign-reference": run_campaign_reference,
}


def main(argv: List[str]) -> int:
    if len(argv) != 3 or argv[1] not in MODES:
        print(f"usage: worker.py {{{','.join(MODES)}}} '<json>'", file=sys.stderr)
        return 2
    if argv[1] == "warmup":
        import repro.analysis.experiments  # noqa: F401
        import repro.sim.parallel  # noqa: F401
        import repro.sim.vector  # noqa: F401
        import repro.service.server  # noqa: F401
    # Sampled from the first line on, so the set-up phase has samples too.
    sampler = SpeedSampler().start()
    try:
        out = MODES[argv[1]](json.loads(argv[2]))
    finally:
        sampler.stop()
    out["speed"] = sampler.samples
    print(json.dumps(out, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
