"""Campaign-service tests: scheduling, HTTP API, metrics and crash resume.

The resume satellite lives in :class:`TestResumeAfterKill`: a campaign is
killed after exactly K points are journaled, a fresh service instance is
pointed at the same store, and only the remaining N-K points execute.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis import runner
from repro.service import (
    CampaignManifest,
    CampaignService,
    CampaignStore,
    ServiceConfig,
    ServiceHandle,
)
from repro.service.metrics import parse_prometheus
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

        # Same cache dir, fresh memo, fresh store location for the journal
        # (a different campaign id would dodge the journal; wipe it so the
        # *result cache* is what satisfies the points).
        runner.clear_memo()
        CampaignStore(runner.campaigns_root(config.cache_dir)).clear()

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

    def test_journal_written_per_completion(self, tmp_path):
        config = service_config(tmp_path)

        async def scenario():
            service = CampaignService(config)
            try:
                campaign, _ = await run_campaign(service, manifest())
                return campaign.id
            finally:
                await service.stop()

        campaign_id = asyncio.run(scenario())
        store = CampaignStore(runner.campaigns_root(config.cache_dir))
        records = store.load_journal(campaign_id)
        assert set(records) == {0, 1, 2, 3}
        assert all(r["src"] == "computed" for r in records.values())
        assert store.load_manifest(campaign_id) == manifest()

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


class TestResumeAfterKill:
    """Kill mid-campaign, restart on the same store, run only N-K points."""

    def test_resume_executes_only_missing_points(self, tmp_path, monkeypatch):
        config = service_config(tmp_path, workers=1, cache_enabled=False)
        store = CampaignStore(runner.campaigns_root(config.cache_dir))
        m = manifest()
        campaign_id = m.campaign_id
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

        async def phase_one():
            service = CampaignService(config)
            try:
                await service.submit(m)
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if len(store.load_journal(campaign_id)) >= 1:
                        break
                    await asyncio.sleep(0.01)
            finally:
                await service.stop()  # the "kill": cancels the campaign task
                release.set()

        asyncio.run(phase_one())
        journaled = store.load_journal(campaign_id)
        completed_before = len(journaled)
        assert 1 <= completed_before < 4, (
            f"expected a partial journal, got {completed_before} records"
        )

        # Phase two: a fresh process (fresh memo, unpatched worker) over
        # the same store.  The result cache is disabled, so the journal is
        # the only thing that can satisfy the K completed points.
        monkeypatch.setattr(runner, "compute_point", real_compute_point)
        runner.clear_memo()

        async def phase_two():
            service = CampaignService(config)
            try:
                campaign, _ = await run_campaign(service, m)
                return campaign
            finally:
                await service.stop()

        campaign = asyncio.run(phase_two())
        assert campaign.status == "done"
        assert campaign.resumed == completed_before
        assert campaign.executed == 4 - completed_before
        assert campaign.counts()["done"] == 4
        for index in journaled:
            assert campaign.sources[index] == "journal"
        # The resumed campaign's results still match a direct sweep,
        # simulated afresh (the service filled the memo).
        runner.clear_memo()
        runner.counters.reset()
        specs = m.expand()
        direct = runner.run_points(
            [s.point for s in specs], workers=1, cache_enabled=False
        )
        assert runner.counters.computed == 4
        for index, result in enumerate(direct):
            assert campaign.summaries[index] == result.summary()


class TestStaleJournal:
    """A journal record resumes its point only under the current cache key."""

    def test_stale_key_reexecutes(self, tmp_path):
        config = service_config(tmp_path, workers=1, cache_enabled=False)
        store = CampaignStore(runner.campaigns_root(config.cache_dir))
        m = manifest()
        specs = m.expand()
        store.create(m)
        # A record from older sources: another key, a summary the current
        # code does not produce.
        stale_key = "0" * 64
        assert stale_key != runner.cache_key(specs[0].point)
        store.append(
            m.campaign_id, 0, "computed", key=stale_key, seconds=1.0,
            summary={"execution_time": -1.0},
        )

        async def scenario():
            service = CampaignService(config)
            try:
                campaign, _ = await run_campaign(service, m)
                return campaign
            finally:
                await service.stop()

        campaign = asyncio.run(scenario())
        assert campaign.status == "done"
        assert campaign.resumed == 0
        assert campaign.executed == 4
        assert campaign.sources[0] == "computed"
        runner.clear_memo()
        direct = runner.run_points(
            [spec.point for spec in specs], workers=1, cache_enabled=False
        )
        assert campaign.summaries[0] == direct[0].summary()
        # The new record replaces the stale one: resume rewrote the journal
        # before appending, so it holds one line per point.
        lines = store.journal_path(m.campaign_id).read_text().splitlines()
        assert len(lines) == 4
        record = store.load_journal(m.campaign_id)[0]
        assert record["key"] == runner.cache_key(specs[0].point)
        assert record["summary"] == direct[0].summary()

    def test_resume_drops_corrupt_trailing_line(self, tmp_path):
        config = service_config(tmp_path, workers=1, cache_enabled=False)
        store = CampaignStore(runner.campaigns_root(config.cache_dir))
        m = manifest()
        specs = m.expand()
        store.create(m)
        # One current record, then a line torn by a crash mid-write.
        store.append(
            m.campaign_id, 1, "computed", key=runner.cache_key(specs[1].point),
            seconds=1.0, summary={"execution_time": 1.0},
        )
        with open(store.journal_path(m.campaign_id), "a") as handle:
            handle.write('{"v": 1, "i": 2, "src": "comp')

        async def scenario():
            service = CampaignService(config)
            try:
                campaign, _ = await run_campaign(service, m)
                return campaign
            finally:
                await service.stop()

        campaign = asyncio.run(scenario())
        assert campaign.status == "done"
        assert campaign.resumed == 1
        assert campaign.sources[1] == "journal"
        assert campaign.executed == 3
        lines = store.journal_path(m.campaign_id).read_text().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line)["v"] == 1 for line in lines)
        assert sorted(store.load_journal(m.campaign_id)) == [0, 1, 2, 3]
        assert store.last_skipped() == 0


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

    def test_stream_reaches_eof_under_pool_backend(self, tmp_path, monkeypatch):
        """A pool worker forked while a stream is open must not keep the
        stream from ending."""
        stream_open = threading.Event()
        real_get_packed_trace = trace_store.get_packed_trace

        def _after_stream_opens(*args, **kwargs):
            # Trace materialization runs before the pool forks its worker:
            # holding it until the stream is open makes the worker inherit
            # the stream's socket.
            stream_open.wait(timeout=60)
            return real_get_packed_trace(*args, **kwargs)

        monkeypatch.setattr(trace_store, "get_packed_trace", _after_stream_opens)
        handle = ServiceHandle(
            service_config(tmp_path, backend="pool", workers=1)
        ).start()
        try:
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
                stream_open.set()
                rest = reader.read()  # to EOF; a socket timeout fails the test
        finally:
            stream_open.set()
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
