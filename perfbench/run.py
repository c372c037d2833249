"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload f3-cold --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced units and reports the
per-layer metrics of the traced ones.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Every unit runs in a fresh interpreter (``worker.py``) against a fresh
cache directory under ``.perfbench/`` that is deleted afterwards; the
traced spans stay in ``.perfbench/spans/``.  Outputs are checked against
the digests in ``reference/``; ``--write-reference`` regenerates them.
perfbench/README.md documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from measure import (  # noqa: E402
    digest,
    layer_totals,
    median,
    mismatches,
    percentile,
    read_samples,
    self_times,
    speed_factor,
    tail_percentile,
)
from worker import F3_RATIOS, peak_rss_mb, point_key  # noqa: E402

#: ``--seed n`` selects input set ``n % INPUT_SETS``; each set has
#: committed reference digests.  Input set 7 is held out: leave it alone
#: while developing a change and confirm the change's claim on it.
INPUT_SETS = 8
HELD_OUT_SEED = 7

#: Per-core trace length of one f3-cold sweep unit.
F3_OPS = 300
#: weakscale-1024: cores and per-core trace length (past warm-up).
WS_CORES = 1024
WS_OPS = 2000
#: campaign-serve: campaigns, ops/core of each point, client connections.
CAMPAIGNS = 32
CAMPAIGN_OPS = 200
CONNECTIONS = 2
POINTS_PER_CAMPAIGN = 2 * len(F3_RATIOS)
#: Server start-ups per unit (all timed; the last one serves the load).
SERVER_LAUNCHES = 3
SCRAPES = 3
#: Set-up samples per run: fresh start-ups are added until there are this many.
SETUP_SAMPLES = {"f3-cold": 5, "weakscale-1024": 3, "campaign-serve": 3}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

KINDS = ("sparse", "cuckoo", "scd", "stash", "ideal")

PER_LAYER = {
    "workloads.gen_s": "s",
    "workloads.gen_ops_per_s": "1/s",
    "workloads.traces_generated": "count",
    "simulator.run_s": "s",
    "simulator.accesses_per_s": "1/s",
    **{f"simulator.accesses_per_s.{kind}": "1/s" for kind in KINDS},
    "simulator.build_system_s": "s",
    "vector.run_s": "s",
    "vector.accesses_per_s": "1/s",
    "parallel.run_s": "s",
    "parallel.accesses_per_s": "1/s",
    "parallel.spec_ops_frac": "ratio",
    "parallel.squashed_ops_frac": "ratio",
    "parallel.spec_chunks": "count",
    "parallel.flushes": "count",
    "parallel.neheap_max": "count",
    "runner.self_s": "s",
    "runner.disk_store_s": "s",
    "runner.disk_load_s": "s",
    "runner.hit_rate": "ratio",
    "runner.computed": "count",
    "runner.disk_hits": "count",
    "experiments.self_s": "s",
    "service.points": "count",
    "service.point_latency_p50_s": "s",
    "service.point_latency_p90_s": "s",
    "service.point_latency_tail_pct": "%",
    "service.point_latency_tail_s": "s",
    "service.submit_s_p50": "s",
    "service.first_result_s_p50": "s",
    "service.wait_s_p50": "s",
    "service.compute_s_p50": "s",
    "service.cache_hit_latency_s_p50": "s",
    "service.worker_busy_frac": "ratio",
    "service.metrics_scrape_s": "s",
    "service.points_failed": "count",
    "coherence.l1_miss_rate": "ratio",
    "coherence.avg_access_latency": "cycles",
    "directory.invals_per_kilo": "1/k-access",
    "directory.coverage_misses_per_kilo": "1/k-access",
    "core.discoveries_per_kilo": "1/k-access",
    "core.false_discovery_rate": "ratio",
    "noc.flit_hops_per_access": "count",
    "model.headline_norm_time": "ratio",
    "trace.overhead_s": "s",
    "trace.attributed_frac": "ratio",
    "trace.spans": "count",
}

now = time.monotonic


class Run:
    """Paths, seed, set-up samples and failure counts of one invocation."""

    def __init__(self, root: str, args: argparse.Namespace) -> None:
        self.root = root
        self.workload = args.workload
        self.seed = args.seed
        self.input_set = args.seed % INPUT_SETS
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        scratch = os.path.join(root, ".perfbench")
        os.makedirs(scratch, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
        self.spans_dir = os.path.join(scratch, "spans")
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.setup_samples: List[float] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p
        )

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        os.makedirs(path)
        return path

    def spans_path(self, index: int) -> str:
        os.makedirs(self.spans_dir, exist_ok=True)
        return os.path.join(
            self.spans_dir, f"{self.workload}-seed{self.seed}-unit{index}.json"
        )

    def worker(self, mode: str, payload: Dict, timeout: float = 175.0) -> Dict:
        """Run one worker to completion; its JSON plus the spawn time."""
        spawned = now()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), mode, json.dumps(payload)],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["spawned"] = spawned
        return out

    def units(self, run_unit: Callable[[bool, int], Dict]) -> List[Dict]:
        """Repeat units until the next one would overrun ``--seconds``.

        At least one unit runs; with tracing on, untraced and traced units
        alternate and at least one of each runs.
        """
        done: List[Dict] = []
        began = now()
        while True:
            traced = self.trace and len(done) % 2 == 1
            unit_began = now()
            unit = run_unit(traced, len(done))
            unit["traced"] = traced
            done.append(unit)
            last = now() - unit_began
            enough = len(done) >= (2 if self.trace else 1)
            if enough and now() - began + last > self.seconds:
                return done


def normalize(out: Dict) -> float:
    """Set a worker's raw and reference-speed wall times; its set-up time.

    Times are scaled to reference host speed by the worker's own speed
    samples (see ``measure.SpeedSampler``); the raw ones are kept too.
    """
    samples = out["speed"]
    out["raw_wall"] = out["end"] - out["start"]
    out["wall"] = out["raw_wall"] * speed_factor(samples, out["start"], out["end"])
    setup = out["start"] - out["spawned"]
    return setup * speed_factor(samples, out["spawned"], out["start"])


def load_reference(workload: str) -> Dict:
    with open(os.path.join(HERE, "reference", f"{workload}.json")) as handle:
        return json.load(handle)


def _read_spans(path: str) -> List[list]:
    with open(path) as handle:
        return json.load(handle)["spans"]


def model_metrics(summaries: List[Dict]) -> Dict[str, float]:
    """Means over a unit's points of the modelled machine's rates."""
    def mean(field: str) -> float:
        return sum(s[field] for s in summaries) / len(summaries)

    return {
        "coherence.l1_miss_rate": mean("l1_miss_rate"),
        "coherence.avg_access_latency": mean("avg_access_latency"),
        "directory.invals_per_kilo": mean("dir_invals_per_kilo"),
        "directory.coverage_misses_per_kilo": mean("coverage_misses_per_kilo"),
        "core.discoveries_per_kilo": mean("discoveries_per_kilo"),
        "core.false_discovery_rate": mean("false_discovery_rate"),
        "noc.flit_hops_per_access": (
            sum(s["flit_hops"] for s in summaries)
            / sum(s["accesses"] for s in summaries)
        ),
    }


def engine_rates(seconds: Dict[str, float], accesses: Dict[str, float]) -> Dict[str, float]:
    """Engine busy seconds and accesses/s, keyed ``engine`` and ``engine.kind``."""
    out = {
        "simulator.run_s": seconds.get("interp", 0.0),
        "vector.run_s": seconds.get("vector", 0.0),
    }
    for layer, engine in (("simulator", "interp"), ("vector", "vector"),
                          ("parallel", "parallel")):
        if seconds.get(engine):
            out[f"{layer}.accesses_per_s"] = accesses[engine] / seconds[engine]
    for kind in KINDS:
        key = f"interp.{kind}"
        if seconds.get(key):
            out[f"simulator.accesses_per_s.{kind}"] = accesses[key] / seconds[key]
    return out


def span_metrics(out: Dict) -> Dict[str, float]:
    """Per-layer self times and rates from one traced unit's spans."""
    spans = _read_spans(out["spans_file"])
    own = self_times(spans)
    totals = layer_totals(spans)
    metrics: Dict[str, float] = {
        "workloads.gen_s": totals.get("workloads.get_packed_trace", 0.0),
        "simulator.build_system_s": totals.get("simulator.build_system", 0.0),
        "parallel.run_s": totals.get("parallel.run", 0.0),
        "runner.self_s": totals.get("runner.run_points", 0.0),
        "runner.disk_store_s": totals.get("runner.disk_store", 0.0),
        "runner.disk_load_s": totals.get("runner.disk_load", 0.0),
        "experiments.self_s": totals.get("experiments.run_performance_sweep", 0.0),
        "trace.spans": float(len(spans)),
    }
    generated_ops = generated_seen = 0
    seconds: Dict[str, float] = {}
    accesses: Dict[str, float] = {}
    inside = 0.0
    for span, self_s in sorted(zip(spans, own), key=lambda pair: pair[0][1]):
        name, note = span[0], span[5]
        if span[1] >= out["start"] and span[2] <= out["end"]:
            inside += self_s
        if name == "workloads.get_packed_trace" and note["generated"] > generated_seen:
            generated_seen = note["generated"]
            generated_ops += note["ops"]
        if name in ("simulator.run_trace", "parallel.run"):
            for key in (note["engine"], f"{note['engine']}.{note['kind']}"):
                seconds[key] = seconds.get(key, 0.0) + self_s
                accesses[key] = accesses.get(key, 0.0) + note["accesses"]
    if metrics["workloads.gen_s"] > 0:
        metrics["workloads.gen_ops_per_s"] = generated_ops / metrics["workloads.gen_s"]
    metrics.update(engine_rates(seconds, accesses))
    # Self time of the spans inside the timed phase over its length.
    metrics["trace.attributed_frac"] = inside / out["raw_wall"]
    return metrics


# ------------------------------------------------------------------ f3-cold

def f3_cold(run: Run) -> Dict:
    reference = load_reference("f3-cold")[str(run.input_set)]
    payload = {"seed": run.input_set + 1, "ops": F3_OPS, "trace": False}

    def unit(traced: bool, index: int) -> Dict:
        spans = run.spans_path(index) if traced else None
        out = run.worker("f3", dict(payload, trace=traced, spans=spans,
                                    cache_dir=run.fresh_dir(f"f3-{index}")))
        run.setup_samples.append(normalize(out))
        out["spans_file"] = spans
        run.attempted += len(out["points"]) + 1
        bad = mismatches(reference["points"], out["points"])
        if bad:
            run.fail(len(bad), f"F3 points differ from reference: {bad[:5]}")
        if out["series"] != reference["series"] or out["headline"] != reference["headline"]:
            run.fail(1, f"F3 series or headline {out['headline']!r} differs from "
                        f"reference {reference['headline']!r}")
        return out

    def setup() -> float:
        out = run.worker("f3", dict(payload, setup_only=True,
                                    cache_dir=run.fresh_dir(f"f3-setup-{now()}")))
        out["end"] = out["start"]
        return normalize(out)

    def layers(out: Dict) -> Dict:
        metrics = span_metrics(out)
        metrics.update(model_metrics(out["summaries"]))
        metrics["model.headline_norm_time"] = out["headline"]
        counts = out["counts"]
        metrics["runner.hit_rate"] = counts["hit_rate"]
        metrics["runner.computed"] = float(counts["computed"])
        metrics["runner.disk_hits"] = float(counts["disk_hits"])
        metrics["workloads.traces_generated"] = float(counts["traces_generated"])
        return metrics

    units = run.units(unit)
    return finish(run, units, setup, layers,
                  {"headline_norm_time": units[0]["headline"], "points": 51})


# ----------------------------------------------------------- weakscale-1024

def weakscale(run: Run) -> Dict:
    reference = load_reference("weakscale-1024")[str(run.input_set)]
    payload = {"seed": run.input_set + 1, "ops": WS_OPS, "cores": WS_CORES,
               "trace": False}

    def unit(traced: bool, index: int) -> Dict:
        spans = run.spans_path(index) if traced else None
        out = run.worker("weakscale", dict(payload, trace=traced, spans=spans))
        run.setup_samples.append(normalize(out))
        out["spans_file"] = spans
        run.attempted += 1
        if out["result"] != reference["result"]:
            run.fail(1, "1024-core result differs from reference "
                        f"(execution time {out['execution_time']} vs "
                        f"{reference['execution_time']})")
        return out

    def setup() -> float:
        out = run.worker("weakscale", dict(payload, setup_only=True))
        out["end"] = out["start"]
        return normalize(out)

    def layers(out: Dict) -> Dict:
        metrics = span_metrics(out)
        metrics.update(model_metrics(out["summaries"]))
        counts = out["counts"]
        spec, heap = counts["spec"], counts["heap"]
        metrics["parallel.spec_ops_frac"] = spec["ops"] / counts["ops"]
        if spec["ops"]:
            metrics["parallel.squashed_ops_frac"] = spec["squashed_ops"] / spec["ops"]
        metrics["parallel.spec_chunks"] = float(spec["chunks"])
        metrics["parallel.flushes"] = float(spec["flushes"])
        metrics["parallel.neheap_max"] = float(heap["neheap_max"])
        metrics["workloads.traces_generated"] = float(counts["traces_generated"])
        return metrics

    units = run.units(unit)
    return finish(run, units, setup, layers,
                  {"execution_time": units[0]["execution_time"]})


# ------------------------------------------------------------ campaign-serve

def campaign_plan(input_set: int) -> List[Dict]:
    """The campaigns of one run, in submission order.

    Distinct grids alternate the engine between ``interp`` and ``vector``
    and each has its own trace seed; every 4th campaign re-submits the
    grid three campaigns back under a new name, so a quarter of the points
    are result-cache reads.
    """
    campaigns: List[Dict] = []
    grids = 0
    for number in range(CAMPAIGNS):
        if number % 4 == 3:
            earlier = campaigns[number - 3]["manifest"]
            campaigns.append({"manifest": dict(earlier, name=f"bench-{number}-again"),
                              "after": number - 3})
            continue
        campaigns.append({"after": None, "manifest": {
            "name": f"bench-{number}",
            "factors": {
                "kind": ["sparse", "stash"],
                "ratio": list(F3_RATIOS),
                "workload": ["mix"],
                "cores": [16],
                "ops": [CAMPAIGN_OPS],
                "engine": ["interp" if grids % 2 == 0 else "vector"],
                "seed": [1000 * (input_set + 1) + grids],
            },
        }})
        grids += 1
    return campaigns


class Server:
    """``repro serve`` as a child process with its own cache directory."""

    def __init__(self, run: Run, cache_dir: str) -> None:
        self.dir = cache_dir
        self.log = os.path.join(cache_dir, "serve.log")
        self.spawned = now()
        with open(self.log, "w") as handle:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "serve.py"), cache_dir,
                 "--workers", "1", "--cache-dir", cache_dir, "serve",
                 "--port", "0", "--backend", "pool"],
                cwd=run.root, env=dict(run.env, PYTHONUNBUFFERED="1"),
                stdout=handle, stderr=subprocess.STDOUT,
            )
        try:
            self.port = self._port()
            self.ready = self._healthy()
        except BaseException:
            self.stop()
            raise

    def _port(self, timeout: float = 60.0) -> int:
        marker = "listening on http://"
        deadline = now() + timeout
        while now() < deadline and self.proc.poll() is None:
            with open(self.log) as handle:
                for line in handle:
                    if marker in line:
                        address = line.split(marker, 1)[1].split()[0]
                        return int(address.rsplit(":", 1)[1])
            time.sleep(0.002)
        with open(self.log) as handle:
            raise RuntimeError(f"repro serve did not start:\n{handle.read()[-2000:]}")

    def _healthy(self, timeout: float = 60.0) -> float:
        deadline = now() + timeout
        while now() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return now()
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise RuntimeError("repro serve never answered /healthz")

    def speed_samples(self, server: bool) -> List:
        """Speed samples of the server process, or of its pool workers."""
        own = f"speed-{self.proc.pid}.txt"
        samples = []
        for name in sorted(os.listdir(self.dir)):
            if name.startswith("speed-") and (name == own) == server:
                samples.extend(read_samples(os.path.join(self.dir, name)))
        return samples

    def setup_s(self) -> float:
        """Launch to ``/healthz``, at reference speed."""
        factor = speed_factor(self.speed_samples(True), self.spawned, self.ready)
        return (self.ready - self.spawned) * factor

    def tree_rss_mb(self) -> float:
        """Largest peak RSS among the server and its descendants."""
        children: Dict[int, List[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            children.setdefault(ppid, []).append(int(entry))
        peak, todo = 0.0, [self.proc.pid]
        while todo:
            pid = todo.pop()
            todo.extend(children.get(pid, []))
            try:
                peak = max(peak, peak_rss_mb(pid))
            except (OSError, RuntimeError):
                pass
        return peak

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)


def campaign_serve(run: Run) -> Dict:
    reference = load_reference("campaign-serve")[str(run.input_set)]["summaries"]
    plan = campaign_plan(run.input_set)

    def launch(name: str) -> Server:
        server = Server(run, run.fresh_dir(name))
        run.setup_samples.append(server.setup_s())
        return server

    def unit(traced: bool, index: int) -> Dict:
        for extra in range(SERVER_LAUNCHES - 1):
            launch(f"serve-{index}-{extra}").stop()
        spans = run.spans_path(index) if traced else None
        server = launch(f"serve-{index}")
        try:
            out = run.worker("client", {
                "host": "127.0.0.1", "port": server.port, "campaigns": plan,
                "connections": CONNECTIONS, "scrapes": SCRAPES, "trace": traced,
                "spans": spans,
            })
            out["rss_mb"] = server.tree_rss_mb()
        finally:
            server.stop()
        out["spans_file"] = spans
        records = [r for r in out["records"] if r]
        first = min(r["post_start"] for r in records)
        last = max([r["last"] for r in records if r["last"]] or [first])
        # The pool worker computes every point and is busy ~95% of the
        # load, so the speed of its CPU is the one that sets the pace.
        samples = server.speed_samples(False) or server.speed_samples(True)
        out["raw_wall"] = last - first
        out["wall"] = out["raw_wall"] * speed_factor(samples, first, last)
        check_campaign(run, out, reference)
        return out

    def setup() -> float:
        server = Server(run, run.fresh_dir(f"serve-setup-{now()}"))
        server.stop()
        return server.setup_s()

    units = run.units(unit)
    return finish(run, units, setup, campaign_layers,
                  {"points": CAMPAIGNS * POINTS_PER_CAMPAIGN,
                   "connections": CONNECTIONS})


def check_campaign(run: Run, out: Dict, reference: Dict) -> None:
    """Every campaign delivered every point, each equal to its reference."""
    run.attempted += CAMPAIGNS * (POINTS_PER_CAMPAIGN + 2) + SCRAPES
    if out["http_errors"]:
        run.fail(len(out["http_errors"]), f"HTTP errors: {out['http_errors'][:3]}")
    for number, record in enumerate(out["records"]):
        lines = [line for _, line in record["lines"]] if record else []
        done = [line for line in lines if line.get("state") == "done"]
        if len(done) != POINTS_PER_CAMPAIGN:
            run.fail(abs(POINTS_PER_CAMPAIGN - len(done)), f"campaign {number}: "
                     f"{len(done)}/{POINTS_PER_CAMPAIGN} points done")
        observed = {point_key(line["labels"]): digest(line["summary"], 16)
                    for line in done}
        bad = mismatches(reference, observed)
        if bad:
            run.fail(len(bad), f"campaign {number} points differ: {bad[:3]}")


def campaign_layers(out: Dict) -> Dict[str, float]:
    """The service's split, from the client's clock and the NDJSON lines."""
    latency, wait, compute, hits, first, submit = [], [], [], [], [], []
    seconds: Dict[str, float] = {}
    accesses: Dict[str, float] = {}
    summaries = []
    sources = {"computed": 0, "cache": 0}
    for record in out["records"]:
        if not record:
            continue
        submit.append(record["post_end"] - record["post_start"])
        if record["first"] is not None:
            first.append(record["first"] - record["post_start"])
        for stamp, line in record["lines"]:
            if line.get("state") != "done":
                continue
            waited = stamp - record["post_start"]
            latency.append(waited)
            sources[line["source"]] = sources.get(line["source"], 0) + 1
            if line["source"] == "cache":
                hits.append(waited)
                continue
            labels = line["labels"]
            compute.append(line["seconds"])
            wait.append(waited - line["seconds"])
            count = labels["cores"] * labels["ops"]
            for key in (labels["engine"], f"{labels['engine']}.{labels['kind']}"):
                seconds[key] = seconds.get(key, 0.0) + line["seconds"]
                accesses[key] = accesses.get(key, 0.0) + count
            summaries.append(dict(line["summary"], accesses=count, labels=labels))
    metrics: Dict[str, float] = {}
    if latency:
        tail = tail_percentile(len(latency)) or 50
        metrics.update({
            "service.points": float(len(latency)),
            "service.point_latency_p50_s": median(latency),
            "service.point_latency_p90_s": percentile(latency, 90),
            "service.point_latency_tail_pct": float(tail),
            "service.point_latency_tail_s": percentile(latency, tail),
        })
    for name, values in (("service.submit_s_p50", submit),
                         ("service.first_result_s_p50", first),
                         ("service.wait_s_p50", wait),
                         ("service.compute_s_p50", compute),
                         ("service.cache_hit_latency_s_p50", hits),
                         ("service.metrics_scrape_s", out["scrape"]["seconds"])):
        if values:
            metrics[name] = median(values)
    metrics["service.worker_busy_frac"] = sum(compute) / out["raw_wall"]
    scraped = out["scrape"]["values"]
    metrics["service.points_failed"] = scraped.get("repro_points_failed_total", 0.0)
    metrics["workloads.traces_generated"] = scraped.get("repro_trace_cache_generated", 0.0)
    total = sum(sources.values())
    metrics["runner.hit_rate"] = sources["cache"] / total if total else 0.0
    metrics["runner.computed"] = float(sources["computed"])
    metrics["runner.disk_hits"] = float(sources["cache"])
    metrics.update(engine_rates(seconds, accesses))
    if summaries:
        metrics.update(model_metrics(summaries))
        metrics["model.headline_norm_time"] = campaign_headline(summaries)
    # The client's HTTP calls cover the timed phase on every connection;
    # the server's own split is the compute seconds each point reports.
    spans = _read_spans(out["spans_file"])
    covered = sum(own for span, own in zip(spans, self_times(spans))
                  if span[0] in ("http.post", "http.stream"))
    metrics["trace.spans"] = float(len(spans))
    metrics["trace.attributed_frac"] = covered / (CONNECTIONS * out["raw_wall"])
    return metrics


def campaign_headline(summaries: List[Dict]) -> float:
    """Geomean over distinct grids of stash at R = 1/8 over sparse at R = 1."""
    times = {}
    for summary in summaries:
        labels = summary["labels"]
        times[(labels["seed"], labels["kind"], labels["ratio"])] = summary["execution_time"]
    ratios = [times[(seed, "stash", 0.125)] / base
              for (seed, kind, ratio), base in times.items()
              if kind == "sparse" and ratio == 1.0 and (seed, "stash", 0.125) in times]
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


# ------------------------------------------------------------------ results

def finish(run: Run, units: List[Dict], setup: Callable[[], float],
           layers: Callable[[Dict], Dict], facts: Dict) -> Dict:
    """A run's metric values (name -> (value, unit)) and facts."""
    plain = [u for u in units if not u["traced"]]
    facts.update(units=len(units), traced_units=len(units) - len(plain),
                 unit_wall_s=[u["wall"] for u in units],
                 unit_raw_wall_s=[u["raw_wall"] for u in units])
    if run.trace:
        traced = [u for u in units if u["traced"]]
        per_unit = [layers(u) for u in traced]
        values = {}
        for name, unit in PER_LAYER.items():
            samples = [m[name] for m in per_unit if name in m]
            values[name] = (median(samples) if samples else 0.0, unit)
        overhead = median([u["wall"] for u in traced]) - median([u["wall"] for u in plain])
        values["trace.overhead_s"] = (overhead, "s")
        return {"values": values, "facts": facts}
    while len(run.setup_samples) < SETUP_SAMPLES[run.workload]:
        run.setup_samples.append(setup())
    facts["setup_s_samples"] = run.setup_samples
    values = {
        "wall_s": (median([u["wall"] for u in plain]), END_TO_END["wall_s"]),
        "setup_s": (median(run.setup_samples), END_TO_END["setup_s"]),
        "peak_rss_mb": (median([u["rss_mb"] for u in plain]), END_TO_END["peak_rss_mb"]),
    }
    return {"values": values, "facts": facts}


WORKLOADS: Dict[str, Callable[[Run], Dict]] = {
    "f3-cold": f3_cold,
    "weakscale-1024": weakscale,
    "campaign-serve": campaign_serve,
}


# --------------------------------------------------------------- references

def write_reference(run: Run) -> int:
    """Regenerate ``reference/<workload>.json`` for every input set.

    f3-cold keeps the F3 series, the headline and every point's digest.
    weakscale-1024 keeps the parallel engine's result digest and refuses
    to write one that the vector engine does not reproduce.
    campaign-serve keeps every distinct point's summary as simulated
    directly on the interpreter, so vector campaigns are checked against
    interpreter results.
    """
    table = {}
    for input_set in range(INPUT_SETS):
        seed = input_set + 1
        if run.workload == "f3-cold":
            out = run.worker("f3", {"seed": seed, "ops": F3_OPS, "trace": False,
                                    "cache_dir": run.fresh_dir(f"ref-{seed}")})
            table[str(input_set)] = {key: out[key] for key in ("headline", "series", "points")}
        elif run.workload == "weakscale-1024":
            out = run.worker("weakscale", {"seed": seed, "ops": WS_OPS, "cores": WS_CORES,
                                           "trace": False, "cross_check": True})
            if out["vector"] != out["result"]:
                print(f"perfbench: engines disagree on input set {input_set}",
                      file=sys.stderr)
                return 1
            table[str(input_set)] = {key: out[key] for key in ("result", "execution_time")}
        else:
            manifests = [c["manifest"] for c in campaign_plan(input_set) if c["after"] is None]
            out = run.worker("campaign-reference", {"manifests": manifests})
            table[str(input_set)] = {"summaries": out["summaries"]}
        print(f"input set {input_set}: done", file=sys.stderr)
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    with open(os.path.join(HERE, "reference", f"{run.workload}.json"), "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def provenance(run: Run) -> Dict:
    commit = None
    if os.path.exists(os.path.join(run.root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=run.root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "seed": run.seed,
        "input_set": run.input_set,
        "held_out_seed": HELD_OUT_SEED,
        "sizes": {"f3_ops": F3_OPS, "ws_cores": WS_CORES, "ws_ops": WS_OPS,
                  "campaigns": CAMPAIGNS, "campaign_ops": CAMPAIGN_OPS},
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="regenerate reference/<workload>.json for every input set",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout that has src/repro",
              file=sys.stderr)
        return 2
    run = Run(root, args)
    try:
        if args.write_reference:
            return write_reference(run)
        run.worker("warmup", {})  # unmeasured: fills the page and bytecode caches
        outcome = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    metrics = {}
    for name, (value, unit) in outcome["values"].items():
        if not math.isfinite(value):
            run.fail(1, f"metric {name} is not finite")
        metrics[name] = {"value": value, "unit": unit}
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload,
                      "provenance": dict(provenance(run), **outcome["facts"])}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
