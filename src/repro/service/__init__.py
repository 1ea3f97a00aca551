"""Serving tier: async front-end with micro-batch coalescing.

The sub-package turns one :class:`~repro.engine.TrajectoryEngine` (any shard
count) into a network service:

* :class:`~repro.service.config.ServiceConfig` — the knobs, env-driven via
  ``REPRO_SERVE_*``.
* :class:`~repro.service.coalescer.MicroBatchCoalescer` — admission control
  plus micro-batch windows that merge concurrent requests into single
  ``run_many`` calls.
* :class:`~repro.service.server.TrajectoryService` — the stdlib asyncio HTTP
  surface (``POST /query``, ``POST /ingest``, ``GET /health``,
  ``GET /stats``) with
  :func:`~repro.service.server.run_service` (blocking, CLI) and
  :func:`~repro.service.server.serve_in_background` (daemon thread) runners.
* :mod:`~repro.service.protocol` — the JSON wire protocol.

Deliberately *not* imported from the top-level :mod:`repro` package: the
library API stays import-light, and the serving tier is only paid for by the
processes that serve.
"""

from .config import ENV_PREFIX, ServiceConfig
from .coalescer import MicroBatchCoalescer
from .protocol import QUERY_TYPES, ingest_from_json, query_from_json, result_to_json
from .server import (
    ServiceHandle,
    TrajectoryService,
    run_service,
    serve_in_background,
)

__all__ = [
    "ENV_PREFIX",
    "MicroBatchCoalescer",
    "QUERY_TYPES",
    "ServiceConfig",
    "ServiceHandle",
    "TrajectoryService",
    "ingest_from_json",
    "query_from_json",
    "result_to_json",
    "run_service",
    "serve_in_background",
]
