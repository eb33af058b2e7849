"""Simulation-as-a-service: the asyncio job server and its clients.

This package turns the embeddable typed API (:mod:`repro.api`) into a
*servable* one. A :class:`ReproServer` accepts
:class:`~repro.api.spec.ExperimentSpec` JSON over HTTP/1.1 (stdlib
``asyncio`` only, no third-party dependencies), multiplexes many
concurrent clients over one shared :class:`~repro.api.session.Session`,
and streams each completed :class:`~repro.api.results.CellResult` back
as one NDJSON line. The moving parts:

- :mod:`repro.service.protocol` — envelope shapes, typed service
  errors and the minimal HTTP helpers shared by server and client.
- :mod:`repro.service.registry` — the in-flight dedupe + fairness
  core: content-keyed jobs, per-client round-robin queues, the
  failure-isolation rule that one client's failed cell is never
  served to another.
- :mod:`repro.service.server` — the asyncio front end and the
  dispatcher thread that drains the registry through
  :meth:`Session.compute_cells`, serially or on the process pool.
- :mod:`repro.service.client` — a small blocking client used by the
  test harness, the chaos suite and the CI smoke job.

See the README's "Simulation service" section for the wire protocol
and the dedupe/failure/drain semantics.
"""

from repro.service.client import ServiceClient, ServiceClientError
from repro.service.protocol import (
    SERVICE_SCHEMA_VERSION,
    BadRequest,
    Draining,
    QueueFull,
    RequestTimeout,
    ServiceError,
)
from repro.service.registry import Delivery, JobRegistry, Ticket
from repro.service.server import (
    BackgroundServer,
    ReproServer,
    SimulationService,
)

__all__ = [
    "SERVICE_SCHEMA_VERSION",
    "ServiceError",
    "BadRequest",
    "Draining",
    "QueueFull",
    "RequestTimeout",
    "Delivery",
    "JobRegistry",
    "Ticket",
    "SimulationService",
    "ReproServer",
    "BackgroundServer",
    "ServiceClient",
    "ServiceClientError",
]
