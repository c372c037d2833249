"""Campaign-service tests: scheduling, HTTP API, metrics and crash resume.

Resume lives in :class:`TestResumeAfterKill`: a campaign is killed after
K points reach the result cache, a fresh service instance is pointed at
the same cache directory, and only the remaining N-K points execute.
:class:`TestRestart` pins what the cache must not serve: results of
other sources, or anything at all with the cache off.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import socket
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.analysis import runner
from repro.service import (
    CampaignManifest,
    CampaignService,
    ServiceConfig,
    ServiceHandle,
)
from repro.service.metrics import parse_prometheus
from repro.service.server import MAX_BODY_BYTES
from repro.workloads import store as trace_store

OPS = 200

TINY = {
    "name": "tiny",
    "factors": {
        "kind": ["sparse", "stash"],
        "ratio": [0.5, 0.125],
        "workload": ["blackscholes-like"],
        "ops": [OPS],
        "cores": [16],
    },
}


@pytest.fixture(autouse=True)
def fresh_state():
    previous = runner.configure()
    runner.clear_memo()
    runner.counters.reset()
    trace_store.clear_memo()
    trace_store.counters.reset()
    yield
    runner.configure(**previous)
    runner.clear_memo()
    runner.counters.reset()
    trace_store.clear_memo()
    trace_store.counters.reset()


def service_config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        port=0, backend="inproc", workers=2, cache_dir=str(tmp_path / "cache")
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def manifest(**overrides) -> CampaignManifest:
    data = dict(TINY)
    data.update(overrides)
    return CampaignManifest.from_dict(data)


async def run_campaign(service: CampaignService, m: CampaignManifest):
    """Submit and await one campaign on the current loop."""
    campaign, created = await service.submit(m)
    task = service._tasks.get(campaign.id)
    if task is not None:
        await asyncio.wait_for(asyncio.shield(task), timeout=120)
    return campaign, created


class TestServiceConfig:
    def test_rejects_serial_backend(self, tmp_path):
        with pytest.raises(ValueError, match="serial"):
            ServiceConfig(backend="serial")

    def test_accepts_pool_and_inproc(self):
        assert ServiceConfig(backend="pool").backend == "pool"
        assert ServiceConfig(backend="inproc").backend == "inproc"

    def test_describe_reports_backend_and_workers(self, tmp_path):
        service = CampaignService(service_config(tmp_path, workers=3))
        try:
            assert service.describe()["backend"] == {
                "backend": "inproc", "workers": 3
            }
        finally:
            asyncio.run(service.stop())


class TestScheduling:
    def test_campaign_completes_with_correct_results(self, tmp_path):
        async def scenario():
            service = CampaignService(service_config(tmp_path))
            try:
                campaign, created = await run_campaign(service, manifest())
                return campaign, created
            finally:
                await service.stop()

        campaign, created = asyncio.run(scenario())
        assert created is True
        assert campaign.status == "done"
        assert campaign.counts() == {
            "pending": 0, "running": 0, "done": 4, "failed": 0
        }
        assert campaign.executed == 4
        # Bit-identical to the direct sweep path, simulated afresh (the
        # service filled the memo).
        runner.clear_memo()
        runner.counters.reset()
        specs = manifest().expand()
        direct = runner.run_points(
            [s.point for s in specs], workers=1, cache_enabled=False
        )
        assert runner.counters.computed == 4
        for index, result in enumerate(direct):
            assert campaign.summaries[index] == result.summary()

    def test_points_from_run_points_are_cache_hits(self, tmp_path):
        """run_points and the service resolve points through one core."""
        specs = manifest().expand()
        runner.run_points([s.point for s in specs], workers=1, cache_enabled=False)
        computed = runner.counters.computed

        async def scenario():
            service = CampaignService(service_config(tmp_path))
            try:
                campaign, _ = await run_campaign(service, manifest())
                return campaign
            finally:
                await service.stop()

        campaign = asyncio.run(scenario())
        assert campaign.status == "done"
        assert campaign.sources == ["cache"] * 4
        assert campaign.executed == 0
        assert runner.counters.computed == computed

    def test_resubmit_is_idempotent(self, tmp_path):
        async def scenario():
            service = CampaignService(service_config(tmp_path))
            try:
                campaign, created = await run_campaign(service, manifest())
                again, created_again = await service.submit(manifest())
                return created, created_again, campaign is again
            finally:
                await service.stop()

        created, created_again, same = asyncio.run(scenario())
        assert created is True
        assert created_again is False
        assert same is True

    def test_cache_hits_skip_dispatch(self, tmp_path):
        """A second service over a warm result cache computes nothing."""
        config = service_config(tmp_path)

        async def first():
            service = CampaignService(config)
            try:
                campaign, _ = await run_campaign(service, manifest())
                return campaign.executed
            finally:
                await service.stop()

        executed_cold = asyncio.run(first())
        assert executed_cold == 4
        # The four results are all the service leaves on disk.
        suffixes = [path.suffix for path in Path(config.cache_dir).iterdir()]
        assert suffixes == [".json"] * 4

        # Same cache dir, fresh memo: a restarted server.
        runner.clear_memo()

        async def second():
            service = CampaignService(config)
            try:
                campaign, _ = await run_campaign(service, manifest())
                return campaign
            finally:
                await service.stop()

        campaign = asyncio.run(second())
        assert campaign.status == "done"
        assert campaign.executed == 0
        assert campaign.cache_hits == 4
        assert all(src == "cache" for src in campaign.sources)

    def test_cache_probe_yields_the_event_loop(self, tmp_path, monkeypatch):
        """A warm campaign's result-cache probe lets other tasks run."""
        factors = dict(TINY["factors"], kind=["stash"], ratio=[0.5],
                       seed=list(range(200)))
        m = manifest(factors=factors)
        hit = runner.run_points(
            [m.expand()[0].point], workers=1, cache_enabled=False
        )[0]
        lookups = []

        def _lookup(point, disk):
            lookups.append(point)
            return hit

        monkeypatch.setattr(runner, "lookup", _lookup)

        async def scenario():
            service = CampaignService(service_config(tmp_path))
            try:
                campaign, _ = await service.submit(m)
                seen = []

                async def sentinel():
                    seen.append(len(lookups))

                probe_pending = asyncio.create_task(sentinel())
                await asyncio.wait_for(
                    asyncio.shield(service._tasks[campaign.id]), timeout=120
                )
                await probe_pending
                return campaign, seen
            finally:
                await service.stop()

        campaign, seen = asyncio.run(scenario())
        assert campaign.status == "done"
        assert campaign.cache_hits == len(lookups) == 200
        assert campaign.executed == 0
        assert 1 <= seen[0] <= 65

    def test_failed_points_fail_the_campaign(self, tmp_path, monkeypatch):
        def _explode(point):
            raise RuntimeError("synthetic point failure")

        monkeypatch.setattr(runner, "compute_point", _explode)

        async def scenario():
            service = CampaignService(service_config(tmp_path))
            try:
                campaign, _ = await run_campaign(service, manifest())
                return campaign
            finally:
                await service.stop()

        campaign = asyncio.run(scenario())
        assert campaign.status == "failed"
        assert campaign.counts()["failed"] == 4
        assert all("synthetic point failure" in (e or "") for e in campaign.errors)

    def test_in_flight_gauges_follow_a_held_point(self, tmp_path, monkeypatch):
        started, release = threading.Event(), threading.Event()
        real_compute_point = runner.compute_point

        def _held(point):
            started.set()
            release.wait(timeout=60)
            return real_compute_point(point)

        monkeypatch.setattr(runner, "compute_point", _held)
        one = manifest(factors=dict(TINY["factors"], kind=["stash"], ratio=[0.5]))

        def gauges(service):
            parsed = parse_prometheus(service.metrics_text())
            return (
                parsed["repro_dispatch_in_flight"][()],
                parsed["repro_worker_utilization"][()],
            )

        async def scenario():
            service = CampaignService(service_config(tmp_path, workers=2))
            try:
                campaign, _ = await service.submit(one)
                deadline = time.monotonic() + 60
                while not started.is_set() and time.monotonic() < deadline:
                    await asyncio.sleep(0.01)
                held = gauges(service)
                release.set()
                await asyncio.wait_for(
                    asyncio.shield(service._tasks[campaign.id]), timeout=120
                )
                return campaign, held, gauges(service)
            finally:
                release.set()
                await service.stop()

        campaign, held, after = asyncio.run(scenario())
        assert campaign.status == "done"
        assert held == (1.0, 0.5)  # one point on one of two workers
        assert after == (0.0, 0.0)

    def test_observed_campaign_surfaces_gauges(self, tmp_path):
        async def scenario():
            service = CampaignService(service_config(tmp_path))
            try:
                observed = manifest(
                    factors={
                        "kind": ["stash"], "ratio": [0.125],
                        "workload": ["blackscholes-like"],
                        "ops": [OPS], "cores": [16],
                    },
                    observe={"epoch": 64},
                )
                campaign, _ = await run_campaign(service, observed)
                return campaign, service.metrics_text()
            finally:
                await service.stop()

        campaign, text = asyncio.run(scenario())
        assert campaign.status == "done"
        assert campaign.executed == 1
        parsed = parse_prometheus(text)
        obs = parsed.get("repro_obs_gauge", {})
        gauge_names = {dict(items)["gauge"] for items in obs}
        assert "dir_occupancy" in gauge_names
        assert "epoch_op" in gauge_names
        assert all(dict(items)["campaign"] == campaign.id for items in obs)


class TestWorkerTraceLookups:
    def test_trace_gauge_counts_a_worker_generation(self, tmp_path):
        """The pool worker is forked when the service starts, so it
        generates each campaign's trace itself, once; the parent's
        ``repro_trace_cache_generated`` must count those generations."""
        second = dict(TINY["factors"], seed=[2])

        async def scenario():
            service = CampaignService(
                service_config(tmp_path, backend="pool", workers=1)
            )
            try:
                first, _ = await run_campaign(service, manifest())
                again, _ = await run_campaign(
                    service, manifest(name="again", factors=second)
                )
                return first, again, service.metrics_text()
            finally:
                await service.stop()

        first, again, text = asyncio.run(scenario())
        assert first.status == again.status == "done"
        gauges = parse_prometheus(text)
        # One generation per trace, both in the worker.
        assert gauges["repro_trace_cache_generated"][()] == 2.0
        assert trace_store.counters.generated == 2
        assert trace_store.counters.memo_hits == 6  # 8 points, 2 generated
        # The server built neither trace: both miss in its own memo.
        for m in (first.manifest, again.manifest):
            trace_store.get_packed_trace(*m.expand()[0].point.trace_memo_key)
        assert trace_store.counters.generated == 4


def run_fresh(config: ServiceConfig, m: CampaignManifest):
    """One campaign on a new service, as a restarted server runs it."""
    runner.clear_memo()

    async def scenario():
        service = CampaignService(config)
        try:
            campaign, _ = await run_campaign(service, m)
            return campaign
        finally:
            await service.stop()

    return asyncio.run(scenario())


def direct_summaries(m: CampaignManifest):
    """The campaign's summaries from a direct sweep, simulated afresh."""
    runner.clear_memo()
    runner.counters.reset()
    direct = runner.run_points(
        [s.point for s in m.expand()], workers=1, cache_enabled=False
    )
    assert runner.counters.computed == 4
    return [result.summary() for result in direct]


class TestResumeAfterKill:
    """Kill mid-campaign, restart on the same cache, run only N-K points."""

    def test_resume_executes_only_missing_points(self, tmp_path, monkeypatch):
        config = service_config(tmp_path, workers=1)
        disk = runner.DiskCache(config.cache_dir)
        m = manifest()
        release = threading.Event()
        real_compute_point = runner.compute_point
        lock = threading.Lock()
        calls = []

        def _first_then_block(point):
            with lock:
                calls.append(point)
                first = len(calls) == 1
            output = real_compute_point(point)
            if not first:
                # Second point: computed but never handed back — exactly
                # the shape of a process dying mid-campaign.
                release.wait(timeout=60)
                raise RuntimeError("killed")
            return output

        monkeypatch.setattr(runner, "compute_point", _first_then_block)

        def cached():
            return [
                index for index, spec in enumerate(m.expand())
                if disk.path_for(runner.cache_key(spec.point)).exists()
            ]

        async def phase_one():
            service = CampaignService(config)
            try:
                await service.submit(m)
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline and not cached():
                    await asyncio.sleep(0.01)
            finally:
                await service.stop()  # the "kill": cancels the campaign task
                release.set()

        asyncio.run(phase_one())
        stored = cached()
        assert 1 <= len(stored) < 4, f"expected a partial cache, got {stored}"

        # Phase two: a fresh process (fresh memo, unpatched worker) over
        # the same cache directory serves the K stored points from it.
        monkeypatch.setattr(runner, "compute_point", real_compute_point)
        campaign = run_fresh(config, m)
        assert campaign.status == "done"
        assert campaign.cache_hits == len(stored)
        assert campaign.executed == 4 - len(stored)
        assert campaign.counts()["done"] == 4
        for index in range(4):
            expected = "cache" if index in stored else "computed"
            assert campaign.sources[index] == expected
            if index in stored:
                assert campaign.seconds[index] == 0.0
        assert campaign.summaries == direct_summaries(m)


class TestRestart:
    """What a restarted server must recompute rather than serve."""

    def test_edited_sources_reexecute(self, tmp_path, monkeypatch):
        config = service_config(tmp_path, workers=1)
        m = manifest()
        assert run_fresh(config, m).executed == 4
        # A server restarted on edited sources: every key changes.
        monkeypatch.setattr(runner, "code_version", lambda: "0" * 64)
        campaign = run_fresh(config, m)
        assert campaign.status == "done"
        assert campaign.cache_hits == 0
        assert campaign.executed == 4
        assert campaign.sources == ["computed"] * 4
        assert campaign.summaries == direct_summaries(m)

    @pytest.mark.parametrize("first_cache", [False, True])
    def test_no_cache_restart_recomputes_every_point(self, tmp_path, first_cache):
        m = manifest()
        first = run_fresh(service_config(tmp_path, cache_enabled=first_cache), m)
        assert first.executed == 4
        campaign = run_fresh(service_config(tmp_path, cache_enabled=False), m)
        assert campaign.status == "done"
        assert campaign.cache_hits == 0
        assert campaign.executed == 4
        assert campaign.sources == ["computed"] * 4
        assert campaign.summaries == direct_summaries(m)
        # A server with the cache off writes nothing under the cache dir.
        if not first_cache:
            assert not Path(tmp_path / "cache").exists()


class TestHttpApi:
    """End-to-end over a real socket (ServiceHandle + urllib)."""

    @pytest.fixture
    def handle(self, tmp_path):
        handle = ServiceHandle(service_config(tmp_path)).start()
        yield handle
        handle.stop()

    @staticmethod
    def _get(handle, path):
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{handle.port}{path}", timeout=30
            ) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    @staticmethod
    def _get_json(handle, path):
        status, raw = TestHttpApi._get(handle, path)
        return status, json.loads(raw)

    @staticmethod
    def _post_json(handle, path, payload):
        req = urllib.request.Request(
            f"http://127.0.0.1:{handle.port}{path}",
            data=json.dumps(payload).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.load(resp)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def _wait_done(self, handle, campaign_id, timeout=120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, status = self._get_json(handle, f"/campaigns/{campaign_id}")
            if status["status"] in ("done", "failed", "cancelled"):
                return status
            time.sleep(0.05)
        raise AssertionError("campaign did not finish in time")

    def test_full_campaign_over_http(self, handle):
        status, submitted = self._post_json(handle, "/campaigns", TINY)
        assert status == 201
        assert submitted["total_points"] == 4

        final = self._wait_done(handle, submitted["id"])
        assert final["status"] == "done"
        assert final["counts"]["done"] == 4
        assert len(final["points"]) == 4
        for point in final["points"]:
            assert point["state"] == "done"
            assert point["summary"]

        # Idempotent resubmit over HTTP: 200, not 201.
        status, again = self._post_json(handle, "/campaigns", TINY)
        assert status == 200
        assert again["created_new"] is False

        # List endpoint shows it.
        status, listing = self._get_json(handle, "/campaigns")
        assert status == 200
        assert [c["id"] for c in listing["campaigns"]] == [submitted["id"]]

    def test_stream_delivers_every_completion(self, handle):
        _, submitted = self._post_json(handle, "/campaigns", TINY)
        status, raw = self._get(
            handle, f"/campaigns/{submitted['id']}/stream"
        )
        assert status == 200
        lines = [json.loads(line) for line in raw.decode().splitlines()]
        assert len(lines) == 4
        assert {line["index"] for line in lines} == {0, 1, 2, 3}
        assert all(line["state"] == "done" for line in lines)

    def test_stream_reaches_eof_under_pool_backend(self, tmp_path):
        """The pool forks its worker when the service starts, before any
        connection is open, so no worker holds a stream's socket and the
        stream ends when the server closes it."""
        before = set(multiprocessing.active_children())
        handle = ServiceHandle(
            service_config(tmp_path, backend="pool", workers=1)
        ).start()
        try:
            assert len(set(multiprocessing.active_children()) - before) == 1
            status, submitted = self._post_json(handle, "/campaigns", TINY)
            assert status == 201
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=30
            ) as sock:
                sock.sendall(
                    f"GET /campaigns/{submitted['id']}/stream HTTP/1.1\r\n"
                    "Host: 127.0.0.1\r\n\r\n".encode("ascii")
                )
                reader = sock.makefile("rb")
                assert reader.readline().startswith(b"HTTP/1.1 200")
                rest = reader.read()  # to EOF; a socket timeout fails the test
        finally:
            handle.stop()
        body = rest.split(b"\r\n\r\n", 1)[1]
        lines = [json.loads(line) for line in body.decode().splitlines()]
        assert {line["index"] for line in lines} == {0, 1, 2, 3}
        assert all(line["state"] == "done" for line in lines)

    def test_metrics_parse_and_count(self, handle):
        _, submitted = self._post_json(handle, "/campaigns", TINY)
        self._wait_done(handle, submitted["id"])
        status, raw = self._get(handle, "/metrics")
        assert status == 200
        parsed = parse_prometheus(raw.decode())
        for family in (
            "repro_points_completed_total",
            "repro_queue_depth",
            "repro_campaigns_active",
            "repro_points_per_second",
            "repro_worker_utilization",
            "repro_workers",
            "repro_result_cache_hit_rate",
            "repro_point_latency_seconds",
            "repro_http_requests_total",
        ):
            assert family in parsed, f"missing family {family}"
        assert sum(parsed["repro_points_completed_total"].values()) == 4
        assert parsed["repro_queue_depth"][()] == 0.0

    @pytest.mark.parametrize("value, status, error", [
        ("-5", 400, "bad Content-Length '-5'"),
        ("abc", 400, "bad Content-Length 'abc'"),
        (str(MAX_BODY_BYTES + 1), 413, "request body too large"),
    ])
    def test_content_length_checked_before_the_body(
        self, handle, value, status, error
    ):
        with socket.create_connection(
            ("127.0.0.1", handle.port), timeout=30
        ) as sock:
            sock.sendall(
                "POST /campaigns HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Length: {value}\r\n\r\n".encode("ascii")
            )
            response = sock.makefile("rb").read()
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode("ascii"))
        assert json.loads(body) == {"error": error}

    def test_error_paths(self, handle):
        status, body = self._post_json(
            handle, "/campaigns", {"factors": {"flavor": ["mild"]}}
        )
        assert status == 400
        assert "unknown factors" in body["error"]

        status, body = self._get_json(handle, "/campaigns/feedface")
        assert status == 404

        status, _ = self._get_json(handle, "/healthz")
        assert status == 200

        status, info = self._get_json(handle, "/")
        assert status == 200
        assert info["backend"]["backend"] == "inproc"

    def test_oversized_grid_rejected_over_http(self, tmp_path):
        handle = ServiceHandle(
            service_config(tmp_path / "small", max_points=2)
        ).start()
        try:
            status, body = self._post_json(handle, "/campaigns", TINY)
            assert status == 400
            assert "over the limit" in body["error"]
        finally:
            handle.stop()


class TestCliServe:
    def test_parser_accepts_serve(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["--workers", "2", "serve", "--port", "0", "--backend", "inproc"]
        )
        assert args.command == "serve"
        assert args.service_backend == "inproc"
        assert args.port == 0

    def test_parser_rejects_serial_service_backend(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "serial"])
