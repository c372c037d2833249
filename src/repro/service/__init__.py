"""Campaign service: the sweep engine as a long-running HTTP/JSON server.

``repro serve`` boots :class:`~repro.service.server.CampaignService` — an
asyncio, stdlib-only HTTP server that accepts **campaign manifests**
(full-factorial factor grids, :mod:`repro.service.manifest`), schedules
their sweep points through the pluggable dispatch backends of
:mod:`repro.analysis.dispatch`, resumes a resubmitted campaign from the
shared result cache (each point's result is stored as it finishes) and
exposes live Prometheus metrics (:mod:`repro.service.metrics`).
:mod:`repro.service.loadgen` is a stdlib HTTP client for it.  See
docs/SERVICE.md for the HTTP API.
"""

from .manifest import (
    ABSOLUTE_MAX_POINTS,
    CampaignManifest,
    ManifestError,
    PointSpec,
    parse_manifest,
)
from .metrics import MetricsRegistry, parse_prometheus
from .server import (
    CampaignService,
    ServiceConfig,
    ServiceHandle,
    serve_forever,
)

__all__ = [
    "ABSOLUTE_MAX_POINTS",
    "CampaignManifest",
    "CampaignService",
    "ManifestError",
    "MetricsRegistry",
    "PointSpec",
    "ServiceConfig",
    "ServiceHandle",
    "parse_manifest",
    "parse_prometheus",
    "serve_forever",
]
