"""CI smoke test for the campaign service (also runnable by hand).

Boots the real CLI (``python -m repro serve``) as a subprocess on an
ephemeral port, submits a tiny 2x2 campaign over HTTP, reads its NDJSON
stream to EOF, polls it to completion, and asserts:

* the stream ends (within ``--timeout``) after one line per point;
* ``GET /metrics`` emits parseable Prometheus text with the expected
  families and a per-kind completed-points count matching the campaign;
* every point's reported summary is **bit-identical** to running the
  same parameterization directly through the in-process sweep engine;
* the server shuts down cleanly on SIGTERM, and never forked while it ran
  more than one thread: it runs with that warning of Python 3.12+ turned
  on (``use of fork() may lead to deadlocks``), and any output line
  carrying it fails the smoke;
* a second server booted on the same cache directory, given the same
  manifest, serves all four points from the result cache
  (``"source": "cache"``, ``cache_hits == 4``, ``executed == 0``) with
  summaries bit-identical to the direct simulation, and shuts down
  cleanly too.

Exit code 0 on success; any assertion or timeout fails loudly.  Usage::

    PYTHONPATH=src python tools/service_smoke.py [--backend inproc|pool]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.service.loadgen import (  # noqa: E402
    fetch_metrics,
    post_json,
    wait_campaign,
)

#: The tiny smoke campaign: 2 kinds x 2 ratios, one workload.
SMOKE_MANIFEST = {
    "name": "ci-smoke",
    "factors": {
        "kind": ["sparse", "stash"],
        "ratio": [0.5, 0.125],
        "workload": ["mix"],
        "ops": [300],
        "cores": [16],
    },
}

READY_PATTERN = re.compile(r"listening on http://[^:]+:(\d+)")

#: Python 3.12+ warns with this when a multi-threaded process forks; the
#: server runs with the warning shown (it is a DeprecationWarning).
FORK_WARNING = "use of fork() may lead to deadlocks"
FORK_WARNING_FILTER = "always:This process:DeprecationWarning"


def _boot(backend: str, cache_dir: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                    env.get("PYTHONPATH")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONWARNINGS"] = FORK_WARNING_FILTER
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro",
            "--workers", "2", "--cache-dir", cache_dir,
            "serve", "--port", "0", "--backend", backend,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def _wait_ready(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    """Read the server's ready line; returns the bound port."""
    deadline = time.monotonic() + timeout
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                f"server exited early ({proc.returncode}): {proc.stdout.read()}"
            )
        line = proc.stdout.readline()
        if not line:
            continue
        _echo(line)
        match = READY_PATTERN.search(line)
        if match:
            return int(match.group(1))
    raise SystemExit("server never printed its ready line")


def _read_stream(base: str, campaign_id: str, timeout: float):
    """Every NDJSON line of the campaign's stream, read to EOF."""
    url = f"{base}/campaigns/{campaign_id}/stream"
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return [json.loads(line) for line in resp.read().decode().splitlines()]


def _echo(output: str) -> None:
    """Print server output; fail if the server forked while multi-threaded."""
    for line in output.splitlines():
        print(f"[server] {line}")
    assert FORK_WARNING not in output, "the server forked while multi-threaded"


def _stop(proc: subprocess.Popen) -> None:
    """SIGTERM the server, require a clean exit, check its remaining output."""
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=30)
    assert proc.stdout is not None
    _echo(proc.stdout.read())
    assert code == 0, f"server exited {code} on SIGTERM"


def _direct_summaries(cache_dir: str):
    """The same four points, simulated directly (no cache, no service)."""
    from repro.analysis.runner import run_points
    from repro.service.manifest import CampaignManifest

    manifest = CampaignManifest.from_dict(SMOKE_MANIFEST)
    specs = manifest.expand()
    results = run_points(
        [spec.point for spec in specs],
        workers=1,
        cache_dir=os.path.join(cache_dir, "direct"),
        cache_enabled=False,
    )
    return {spec.index: result.summary() for spec, result in zip(specs, results)}


def _check_summaries(status, direct) -> None:
    """Every point's summary equals the direct simulation's."""
    for point in status["points"]:
        expected = direct[point["index"]]
        assert point["summary"] == expected, (
            f"point {point['index']} diverged from direct run_trace:\n"
            f"  service: {point['summary']}\n  direct:  {expected}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend", default="inproc", choices=["inproc", "pool"],
        help="dispatch backend the server uses (default: inproc)",
    )
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args(argv)

    cache_dir = tempfile.mkdtemp(prefix="service_smoke_")
    proc = _boot(args.backend, cache_dir)
    try:
        port = _wait_ready(proc)
        base = f"http://127.0.0.1:{port}"

        submitted = post_json(base, "/campaigns", SMOKE_MANIFEST)
        campaign_id = submitted["id"]
        print(f"submitted campaign {campaign_id} "
              f"({submitted['total_points']} points)")
        assert submitted["total_points"] == 4, submitted

        lines = _read_stream(base, campaign_id, args.timeout)
        assert sorted(line["index"] for line in lines) == [0, 1, 2, 3], lines
        print(f"stream ended after {len(lines)} lines")

        status = wait_campaign(base, campaign_id, timeout=args.timeout)
        print(f"campaign finished: {status['status']} {status['counts']}")
        assert status["status"] == "done", status["counts"]
        assert status["counts"]["done"] == 4

        metrics = fetch_metrics(base)
        for family in (
            "repro_points_completed_total",
            "repro_queue_depth",
            "repro_worker_utilization",
            "repro_points_per_second",
            "repro_result_cache_hit_rate",
            "repro_point_latency_seconds",
            "repro_http_requests_total",
        ):
            assert family in metrics, f"missing metric family {family}"
        completed = sum(metrics["repro_points_completed_total"].values())
        assert completed == 4, f"expected 4 completed points, saw {completed}"
        print(f"metrics OK: {len(metrics)} families, {completed} points counted")

        direct = _direct_summaries(cache_dir)
        _check_summaries(status, direct)
        print("all 4 point summaries bit-identical to direct simulation")

        _stop(proc)
        print("clean SIGTERM shutdown")

        # Restart on the same cache dir: the result cache serves every point.
        proc = _boot(args.backend, cache_dir)
        base = f"http://127.0.0.1:{_wait_ready(proc)}"
        resubmitted = post_json(base, "/campaigns", SMOKE_MANIFEST)
        assert resubmitted["id"] == campaign_id, resubmitted
        status = wait_campaign(base, campaign_id, timeout=args.timeout)
        assert status["status"] == "done", status["counts"]
        sources = [point["source"] for point in status["points"]]
        assert sources == ["cache"] * 4, sources
        assert status["cache_hits"] == 4, f"cache hits {status['cache_hits']} of 4"
        assert status["executed"] == 0, f"executed {status['executed']} points"
        _check_summaries(status, direct)
        print("restarted server served all 4 points from the result cache")

        _stop(proc)
        print("clean SIGTERM shutdown after restart")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        import shutil

        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
