"""HTTP client for the campaign service (stdlib ``urllib`` only).

The client half of ``tools/service_smoke.py``: POST a campaign manifest,
GET a JSON endpoint, poll a campaign to a terminal state, and fetch
``/metrics``.  Every ``/metrics`` fetch round-trips through the strict
parser, so a format regression fails the caller loudly.  The load
generator that gave the module its name is gone; perfbench's
campaign-serve workload drives the service under load.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, Optional, Tuple

from .metrics import parse_prometheus

#: Default per-campaign completion timeout (seconds).
DEFAULT_TIMEOUT = 300.0


class ServiceClientError(RuntimeError):
    """An HTTP call to the campaign service failed."""


def _request(
    base_url: str,
    path: str,
    body: Optional[Dict] = None,
    timeout: float = 30.0,
) -> Tuple[int, bytes]:
    """One request against the service; returns (status, body bytes)."""
    url = base_url.rstrip("/") + path
    data = None
    method = "GET"
    headers = {}
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        method = "POST"
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, method=method, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()
    except (urllib.error.URLError, OSError) as exc:
        raise ServiceClientError(f"{method} {url}: {exc}") from None


def get_json(base_url: str, path: str, timeout: float = 30.0) -> Dict:
    """GET a JSON endpoint; raises on non-2xx."""
    status, raw = _request(base_url, path, timeout=timeout)
    payload = json.loads(raw.decode("utf-8"))
    if status >= 400:
        raise ServiceClientError(f"GET {path} -> {status}: {payload}")
    return payload


def post_json(base_url: str, path: str, body: Dict, timeout: float = 30.0) -> Dict:
    """POST JSON; returns the decoded response, raises on non-2xx."""
    status, raw = _request(base_url, path, body=body, timeout=timeout)
    payload = json.loads(raw.decode("utf-8"))
    if status >= 400:
        raise ServiceClientError(f"POST {path} -> {status}: {payload}")
    return payload


def fetch_metrics(base_url: str, timeout: float = 30.0) -> Dict:
    """GET ``/metrics`` and parse it strictly; raises on junk output."""
    status, raw = _request(base_url, "/metrics", timeout=timeout)
    if status != 200:
        raise ServiceClientError(f"GET /metrics -> {status}")
    return parse_prometheus(raw.decode("utf-8"))


def wait_campaign(
    base_url: str,
    campaign_id: str,
    timeout: float = DEFAULT_TIMEOUT,
    poll: float = 0.2,
) -> Dict:
    """Poll one campaign until it reaches a terminal state."""
    deadline = time.monotonic() + timeout
    while True:
        status = get_json(base_url, f"/campaigns/{campaign_id}")
        if status["status"] in ("done", "failed", "cancelled"):
            return status
        if time.monotonic() >= deadline:
            raise ServiceClientError(
                f"campaign {campaign_id} still {status['status']!r} "
                f"after {timeout:.0f}s"
            )
        time.sleep(poll)
