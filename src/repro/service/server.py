"""Asyncio campaign service: the sweep runner as a long-running HTTP server.

``repro serve`` promotes the one-shot sweep CLI into a persistent,
stdlib-only service.  Clients POST **campaign manifests**
(:mod:`repro.service.manifest`); the service expands them to sweep
points, satisfies what it can from the content-addressed result cache,
and runs the rest on a stdlib executor
(:func:`~repro.analysis.dispatch.make_executor`), one future per point.
The executor starts its workers when the service is built, before any
socket or thread exists, so a process pool forks from a single-threaded
server that holds no connection.  Cache lookups, point computation and
cache writes go through the same public core as
:func:`~repro.analysis.runner.run_points`.
The result cache is the only record of a finished point: each result is
stored atomically *as it finishes*, so a killed server restarted on the
same manifest serves the finished points from the cache and re-runs only
the missing ones.  Cache keys fold in the code version, so a server
restarted on edited sources re-runs every point, and one started with
the cache off (``--no-cache``) re-runs them all.

HTTP API (JSON unless noted; see docs/SERVICE.md):

========================== ==============================================
``POST /campaigns``        submit a manifest; idempotent per campaign id
``GET /campaigns``         list campaigns with per-state counts
``GET /campaigns/<id>``    full status including per-point states
``GET /campaigns/<id>/stream``  NDJSON: one line per completed point,
                           streamed live until the campaign finishes
``GET /metrics``           Prometheus text format (queue depth, points/s,
                           cache hit rates, per-kind throughput, worker
                           utilization, latency quantiles, obs gauges)
``GET /healthz``           liveness probe
``GET /``                  service + executor description
========================== ==============================================

Observed campaigns (manifest ``observe.epoch > 0``) run their points
in-process so the freshest epoch sample's gauges
(:meth:`~repro.obs.epoch.EpochSampler.latest_gauges`) are surfaced at
``/metrics`` as ``repro_obs_gauge{gauge=...,campaign=...}``.

The HTTP layer is deliberately tiny: HTTP/1.1 request parsing over
asyncio streams, ``Connection: close`` per request, no TLS, bind to
loopback by default — an internal lab service, not an internet face.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..analysis import dispatch as dispatch_mod
from ..analysis import runner
from ..workloads import store as trace_store
from .manifest import CampaignManifest, ManifestError, PointSpec, parse_manifest
from .metrics import MetricsRegistry, render_gauge_dict

#: Service API version reported at ``GET /``.
SERVICE_VERSION = 1

#: Sliding window (seconds) for the points/s gauge.
RATE_WINDOW_SECONDS = 30.0

#: Result-cache lookups between two yields of the event loop, so a large
#: warm campaign's probe does not stall other requests until it ends.
PROBE_YIELD_EVERY = 64


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs to boot.

    ``workers=0`` resolves to the runner's clamped default;
    ``cache_dir=None`` uses the configured runner cache root.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    backend: str = "pool"
    workers: int = 0
    cache_dir: Optional[str] = None
    cache_enabled: bool = True
    max_points: int = 100_000

    def __post_init__(self) -> None:
        if self.backend not in dispatch_mod.EXECUTORS:
            raise ValueError(
                f"service backend must be one of {sorted(dispatch_mod.EXECUTORS)}, "
                f"got {self.backend!r}"
            )


class Campaign:
    """Live state of one submitted campaign (service-internal)."""

    def __init__(self, manifest: CampaignManifest, specs: List[PointSpec]):
        self.manifest = manifest
        self.id = manifest.campaign_id
        self.specs = specs
        n = len(specs)
        self.states: List[str] = ["pending"] * n
        self.sources: List[Optional[str]] = [None] * n
        self.summaries: List[Optional[Dict]] = [None] * n
        self.seconds: List[float] = [0.0] * n
        self.errors: List[Optional[str]] = [None] * n
        self.status = "queued"
        self.error: Optional[str] = None
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.submit_monotonic = time.monotonic()
        self.cache_hits = 0   # points satisfied from the result cache
        self.executed = 0     # points actually simulated by this process
        self.events: List[Dict] = []   # completion records, stream order
        self.cond = asyncio.Condition()

    def counts(self) -> Dict[str, int]:
        """Per-state point counts."""
        out = {"pending": 0, "running": 0, "done": 0, "failed": 0}
        for state in self.states:
            out[state] += 1
        return out

    def done(self) -> bool:
        return self.status in ("done", "failed", "cancelled")

    def summary_dict(self) -> Dict:
        """The list-view JSON shape."""
        return {
            "id": self.id,
            "name": self.manifest.name,
            "status": self.status,
            "total_points": len(self.specs),
            "counts": self.counts(),
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
        }

    def status_dict(self, include_points: bool = True) -> Dict:
        """The detail-view JSON shape (per-point states included)."""
        out = self.summary_dict()
        out["manifest"] = self.manifest.to_dict()
        if include_points:
            out["points"] = [
                {
                    "index": spec.index,
                    "labels": spec.labels,
                    "state": self.states[i],
                    "source": self.sources[i],
                    "seconds": self.seconds[i],
                    "summary": self.summaries[i],
                    "error": self.errors[i],
                }
                for i, spec in enumerate(self.specs)
            ]
        return out


class CampaignService:
    """Schedules campaigns on an executor; owns the metrics.

    The executor's workers start here: one no-op submit makes a
    fork-context process pool fork every worker at once (CPython
    gh-90622), while the server has one thread and no open connection.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        cache_dir = self.config.cache_dir or str(runner.configure()["cache_dir"])
        self.cache_dir = cache_dir
        self.disk = runner.DiskCache(cache_dir) if self.config.cache_enabled else None
        self.workers = self.config.workers or runner.effective_workers(None)
        self.executor = dispatch_mod.make_executor(self.config.backend, self.workers)
        self.executor.submit(int)
        self.campaigns: Dict[str, Campaign] = {}
        self._tasks: Dict[str, asyncio.Task] = {}
        self.registry = registry or MetricsRegistry()
        self._completions: Deque[float] = deque(maxlen=4096)
        self._obs_campaign: Optional[str] = None
        self._obs_gauges: Dict[str, float] = {}
        self._build_metrics()

    # -- metrics ------------------------------------------------------------

    def _build_metrics(self) -> None:
        r = self.registry
        self.m_campaigns = r.counter(
            "repro_campaigns_submitted_total", "Campaign manifests accepted",
        )
        self.m_points = r.counter(
            "repro_points_completed_total",
            "Completed sweep points by directory kind and source",
            ("kind", "source"),
        )
        self.m_failed = r.counter(
            "repro_points_failed_total", "Sweep points that raised",
        )
        self.m_http = r.counter(
            "repro_http_requests_total", "HTTP requests served",
            ("method", "code"),
        )
        self.m_latency = r.summary(
            "repro_point_latency_seconds",
            "Campaign-submit to point-result latency",
        )
        r.gauge_func(
            "repro_queue_depth",
            "Sweep points pending or running across campaigns",
            self._queue_depth,
        )
        r.gauge_func(
            "repro_campaigns_active",
            "Campaigns currently queued or running",
            lambda: sum(1 for c in self.campaigns.values() if not c.done()),
        )
        r.gauge_func(
            "repro_points_per_second",
            f"Point completion rate over the last {RATE_WINDOW_SECONDS:g}s",
            self._points_per_second,
        )
        r.gauge_func(
            "repro_workers", "Dispatch backend worker slots",
            lambda: self.workers,
        )
        r.gauge_func(
            "repro_worker_utilization",
            "Fraction of backend workers with a point in flight",
            lambda: min(1.0, self._in_flight() / self.workers),
        )
        r.gauge_func(
            "repro_dispatch_in_flight", "Points submitted but not finished",
            self._in_flight,
        )
        # Cache layers, read live from the runner/trace-memo counters.
        c, t = runner.counters, trace_store.counters
        r.gauge_func(
            "repro_result_cache_hit_rate",
            "Result lookups served from memo or disk",
            lambda: c.hit_rate,
        )
        r.gauge_func(
            "repro_result_cache_memo_hits", "Result memo hits", lambda: c.memo_hits
        )
        r.gauge_func(
            "repro_result_cache_disk_hits", "Result disk-cache hits",
            lambda: c.disk_hits,
        )
        r.gauge_func(
            "repro_result_cache_computed", "Results computed (cache misses)",
            lambda: c.computed,
        )
        r.gauge_func(
            "repro_trace_cache_hit_rate",
            "Trace lookups served from the memo",
            lambda: t.memo_hits / t.lookups if t.lookups else 0.0,
        )
        r.gauge_func(
            "repro_trace_cache_generated", "Workload traces generated",
            lambda: t.generated,
        )

    def _queue_depth(self) -> int:
        depth = 0
        for campaign in self.campaigns.values():
            counts = campaign.counts()
            depth += counts["pending"] + counts["running"]
        return depth

    def _in_flight(self) -> int:
        """Plain points submitted to the executor and not yet finished."""
        return sum(
            state == "running" and not spec.point.observed
            for campaign in self.campaigns.values()
            for spec, state in zip(campaign.specs, campaign.states)
        )

    def _points_per_second(self) -> float:
        now = time.monotonic()
        recent = sum(1 for t in self._completions if now - t <= RATE_WINDOW_SECONDS)
        return recent / RATE_WINDOW_SECONDS

    def metrics_text(self) -> str:
        """The full ``/metrics`` payload (registry + obs gauges)."""
        text = self.registry.render()
        if self._obs_gauges and self._obs_campaign:
            text += render_gauge_dict(
                "repro_obs_gauge",
                "Latest observed-point epoch gauges (freshest run wins)",
                self._obs_gauges,
                {"campaign": self._obs_campaign},
            )
        return text

    # -- submission ---------------------------------------------------------

    async def submit(self, manifest: CampaignManifest) -> Tuple[Campaign, bool]:
        """Accept (or re-attach to) a campaign; returns (campaign, created).

        Idempotent per campaign id: re-submitting a manifest already known
        to this process returns its live state.  A manifest a previous
        process ran resumes from the result cache: only points with no
        result under their current cache key execute.
        """
        campaign_id = manifest.campaign_id
        existing = self.campaigns.get(campaign_id)
        if existing is not None:
            return existing, False
        specs = manifest.expand(self.config.max_points)
        campaign = Campaign(manifest, specs)
        self.campaigns[campaign_id] = campaign
        self.m_campaigns.inc()
        task = asyncio.create_task(self._run(campaign))
        self._tasks[campaign_id] = task
        return campaign, True

    # -- scheduling ---------------------------------------------------------

    async def _notify(self, campaign: Campaign) -> None:
        async with campaign.cond:
            campaign.cond.notify_all()

    def _complete_point(
        self,
        campaign: Campaign,
        index: int,
        source: str,
        seconds: float,
        summary: Dict,
    ) -> None:
        """All bookkeeping for one finished point (metrics, event)."""
        campaign.states[index] = "done"
        campaign.sources[index] = source
        campaign.seconds[index] = seconds
        campaign.summaries[index] = summary
        labels = campaign.specs[index].labels
        self.m_points.inc(kind=str(labels["kind"]), source=source)
        self.m_latency.observe(time.monotonic() - campaign.submit_monotonic)
        self._completions.append(time.monotonic())
        campaign.events.append(
            {
                "campaign": campaign.id,
                "index": index,
                "state": "done",
                "source": source,
                "seconds": round(seconds, 6),
                "labels": labels,
                "summary": summary,
            }
        )

    def _fail_point(
        self, campaign: Campaign, index: int, error: str
    ) -> None:
        campaign.states[index] = "failed"
        campaign.errors[index] = error
        self.m_failed.inc()
        campaign.events.append(
            {
                "campaign": campaign.id,
                "index": index,
                "state": "failed",
                "error": error,
                "labels": campaign.specs[index].labels,
            }
        )

    async def _run(self, campaign: Campaign) -> None:
        """The per-campaign scheduler task."""
        loop = asyncio.get_running_loop()
        campaign.status = "running"
        campaign.started = time.time()
        try:
            # 1. Result-cache probe: a point someone already computed (any
            # process, any campaign, a killed run of this one) completes
            # without dispatch.
            pending = []
            for index, spec in enumerate(campaign.specs):
                if index and index % PROBE_YIELD_EVERY == 0:
                    await asyncio.sleep(0)
                hit = runner.lookup(spec.point, self.disk)
                if hit is None:
                    pending.append(index)
                    continue
                campaign.cache_hits += 1
                self._complete_point(campaign, index, "cache", 0.0, hit.summary())
            await self._notify(campaign)

            # 2. One future per point: plain points on the service's
            # executor, observed points on the loop's default executor, in
            # this process (their Observer must come back).
            futures: Dict[asyncio.Future, int] = {}
            for index in pending:
                point = campaign.specs[index].point
                if point.observed:
                    future = loop.run_in_executor(None, runner.execute_point, point)
                else:
                    future = loop.run_in_executor(
                        self.executor, runner.compute_point, point
                    )
                campaign.states[index] = "running"
                futures[future] = index
            await self._notify(campaign)

            # 3. Fold completions as they land.
            outstanding = set(futures)
            while outstanding:
                finished, outstanding = await asyncio.wait(
                    outstanding, return_when=asyncio.FIRST_COMPLETED
                )
                for future in finished:
                    self._fold(campaign, futures[future], future)
                await self._notify(campaign)

            failed = campaign.counts()["failed"]
            campaign.status = "failed" if failed else "done"
        except asyncio.CancelledError:
            campaign.status = "cancelled"
            campaign.error = "service shutdown"
            raise
        except ManifestError as exc:
            campaign.status = "failed"
            campaign.error = str(exc)
        except Exception as exc:  # pragma: no cover - defensive
            campaign.status = "failed"
            campaign.error = f"{type(exc).__name__}: {exc}"
        finally:
            campaign.finished = time.time()
            await self._notify(campaign)

    def _fold(self, campaign: Campaign, index: int, future) -> None:
        """Record one finished point through the runner core."""
        point = campaign.specs[index].point
        try:
            output = future.result()
        except Exception as exc:
            self._fail_point(campaign, index, f"{type(exc).__name__}: {exc}")
            return
        if point.observed:
            output, observer = output
            sampler = getattr(observer, "sampler", None)
            if sampler is not None:
                gauges = sampler.latest_gauges()
                if gauges:
                    self._obs_campaign = campaign.id
                    self._obs_gauges = gauges
        runner.record(point, output, self.disk)
        campaign.executed += 1
        self._complete_point(
            campaign, index, "computed", output.seconds, output.result.summary()
        )

    # -- lifecycle ----------------------------------------------------------

    async def stop(self) -> None:
        """Cancel running campaigns and drain the executor."""
        tasks = list(self._tasks.values())
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        dispatch_mod.drain(self.executor)

    def describe(self) -> Dict:
        """``GET /`` payload."""
        return {
            "service": "repro-campaigns",
            "version": SERVICE_VERSION,
            "backend": {"backend": self.config.backend, "workers": self.workers},
            "cache_dir": str(self.cache_dir),
            "cache_enabled": self.config.cache_enabled,
            "max_points": self.config.max_points,
            "campaigns": len(self.campaigns),
        }


# ---------------------------------------------------------------- HTTP layer

_STATUS_TEXT = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
}

#: Reject request bodies above this size (a manifest is small).
MAX_BODY_BYTES = 4 * 1024 * 1024


def _response_bytes(
    status: int, body: bytes, content_type: str = "application/json"
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: int, payload: Dict) -> bytes:
    return _response_bytes(
        status, (json.dumps(payload) + "\n").encode("utf-8")
    )


class _Refused(Exception):
    """A request refused before routing, answered with ``status``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class HttpFrontend:
    """Minimal HTTP/1.1 request handling over asyncio streams."""

    def __init__(self, service: CampaignService) -> None:
        self.service = service

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        method = "-"
        code: Optional[int] = None
        try:
            parsed = await self._read_request(reader)
            if parsed is None:
                return
            method, path, body = parsed
            code = await self._route(method, path, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            return
        except Exception as exc:
            if isinstance(exc, _Refused):
                code, error = exc.status, str(exc)
            else:
                code, error = 500, f"{type(exc).__name__}: {exc}"
            try:
                writer.write(_json_response(code, {"error": error}))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        finally:
            if code is not None:
                self.service.m_http.inc(method=method, code=str(code))
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if not line.strip():
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                text = value.strip()
                if not (text.isascii() and text.isdigit()):
                    raise _Refused(400, f"bad Content-Length {text!r}")
                content_length = int(text)
        if content_length > MAX_BODY_BYTES:
            raise _Refused(413, "request body too large")
        body = (
            await reader.readexactly(content_length) if content_length else b""
        )
        return method, path, body

    async def _route(
        self, method: str, path: str, body: bytes,
        writer: asyncio.StreamWriter,
    ) -> int:
        service = self.service
        path = path.split("?", 1)[0].rstrip("/") or "/"

        async def send(status: int, payload: Dict) -> int:
            writer.write(_json_response(status, payload))
            await writer.drain()
            return status

        if path == "/" and method == "GET":
            return await send(200, service.describe())
        if path == "/healthz" and method == "GET":
            return await send(200, {"ok": True})
        if path == "/metrics" and method == "GET":
            writer.write(
                _response_bytes(
                    200,
                    service.metrics_text().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            )
            await writer.drain()
            return 200
        if path == "/campaigns":
            if method == "POST":
                try:
                    manifest = parse_manifest(body)
                    campaign, created = await service.submit(manifest)
                except ManifestError as exc:
                    return await send(400, {"error": str(exc)})
                payload = campaign.summary_dict()
                payload["created_new"] = created
                return await send(201 if created else 200, payload)
            if method == "GET":
                return await send(
                    200,
                    {
                        "campaigns": [
                            c.summary_dict()
                            for c in service.campaigns.values()
                        ]
                    },
                )
            return await send(405, {"error": f"{method} not allowed"})
        if path.startswith("/campaigns/"):
            rest = path[len("/campaigns/"):]
            campaign_id, _, tail = rest.partition("/")
            campaign = service.campaigns.get(campaign_id)
            if campaign is None:
                return await send(404, {"error": f"unknown campaign {campaign_id!r}"})
            if method != "GET":
                return await send(405, {"error": f"{method} not allowed"})
            if tail == "":
                return await send(200, campaign.status_dict())
            if tail == "stream":
                return await self._stream(campaign, writer)
            return await send(404, {"error": f"unknown endpoint {path!r}"})
        return await send(404, {"error": f"unknown endpoint {path!r}"})

    async def _stream(
        self, campaign: Campaign, writer: asyncio.StreamWriter
    ) -> int:
        """NDJSON: every completion event, then live until the campaign ends."""
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
        )
        sent = 0
        while True:
            while sent < len(campaign.events):
                line = json.dumps(
                    campaign.events[sent], separators=(",", ":")
                ) + "\n"
                writer.write(line.encode("utf-8"))
                sent += 1
            await writer.drain()
            if campaign.done() and sent >= len(campaign.events):
                return 200
            async with campaign.cond:
                try:
                    await asyncio.wait_for(campaign.cond.wait(), timeout=5.0)
                except asyncio.TimeoutError:
                    pass


# ------------------------------------------------------------------- runners

async def start_server(
    service: CampaignService, host: str, port: int
) -> asyncio.AbstractServer:
    """Bind the HTTP frontend; ``port=0`` picks an ephemeral port."""
    frontend = HttpFrontend(service)
    return await asyncio.start_server(frontend.handle, host, port)


def bound_port(server: asyncio.AbstractServer) -> int:
    """The concrete port a (possibly ephemeral) server listens on."""
    for sock in server.sockets:
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            return sock.getsockname()[1]
    raise RuntimeError("server has no bound INET socket")


async def serve_forever(
    config: ServiceConfig,
    ready: Optional[Callable] = None,
) -> int:
    """Run the service until SIGINT/SIGTERM (or cancellation); returns 0.

    The service, and with it the executor's workers, starts first and the
    socket second, so no worker is ever forked while a connection is
    open.  ``ready(port, service)`` fires once the socket is bound (tests
    and the CLI use it to report the final port).  Off the main thread no
    signal handler can be installed: cancel the task instead, as
    :class:`ServiceHandle` does.
    """
    service = CampaignService(config)
    server = await start_server(service, config.host, config.port)
    if ready is not None:
        ready(bound_port(server), service)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # off the main thread
            pass
    try:
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        await service.stop()
    return 0


class ServiceHandle:
    """A service running on a daemon thread (benchmarks, smoke tests).

    Runs :func:`serve_forever` as a task on its own event loop;
    :meth:`start` blocks until the socket is bound and exposes
    :attr:`port` / :attr:`service`; :meth:`stop` cancels the task (which
    closes the socket, cancels the campaigns and drains the executor) and
    joins the thread.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.port: Optional[int] = None
        self.service: Optional[CampaignService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._task: Optional[asyncio.Task] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )

    def start(self, timeout: float = 30.0) -> "ServiceHandle":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("campaign service failed to start in time")
        return self

    def _on_ready(self, port: int, service: CampaignService) -> None:
        self.port, self.service = port, service
        self._ready.set()

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._task = loop.create_task(serve_forever(self.config, self._on_ready))
        try:
            loop.run_until_complete(self._task)
        except asyncio.CancelledError:
            pass
        finally:
            loop.close()

    def stop(self, timeout: float = 30.0) -> None:
        loop, task = self._loop, self._task
        if loop is not None and task is not None and loop.is_running():
            loop.call_soon_threadsafe(task.cancel)
        self._thread.join(timeout)
