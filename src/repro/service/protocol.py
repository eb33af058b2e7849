"""Wire protocol of the simulation service.

One request shape and three response shapes, all JSON:

- ``POST /run`` with an :class:`~repro.api.spec.ExperimentSpec`
  ``to_dict()`` document as the body answers with an NDJSON stream
  (``application/x-ndjson``, close-delimited): one *result* envelope
  per grid cell as it completes, then exactly one *end* envelope.
- ``GET /health`` and ``GET /stats`` answer with a single JSON
  document.
- Every failure mode is a typed error: a JSON ``error`` body carrying
  a stable machine-readable ``code`` (``bad-request``, ``draining``,
  ``queue-full``, ``not-found``, ``internal``) next to the human
  message.

Byte-identity contract: the default stream envelopes are a pure
function of the cell payloads — no timestamps, no request ids, no
warm/cold markers — so a warm replay of the same spec (``?order=spec``)
is **byte-identical** to the cold run that filled the store, the same
contract ``evaluate --format json`` keeps. Provenance markers
(``source``: ``computed`` / ``warm`` / ``attached``) exist but are
opt-in via ``?trace=1``; the chaos and dedupe suites rely on them.

Envelope shapes (canonical JSON: sorted keys, compact separators)::

    {"cell": {...CellResult.to_dict()...}, "event": "result"}
    {"cells": N, "event": "end", "ok": true}
    {"cell": {"dataset": d, "model": m, "platform": p},
     "error": {"code": "draining", "message": "..."},
     "event": "rejected"}
    {"error": {"code": "...", "message": "..."}, "event": "error"}
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "SERVICE_SCHEMA_VERSION",
    "ServiceError",
    "BadRequest",
    "Draining",
    "QueueFull",
    "canonical_json",
    "ndjson_line",
    "result_envelope",
    "rejected_envelope",
    "end_envelope",
    "error_body",
    "http_response",
    "http_stream_head",
]

#: Version stamp of the service protocol, embedded in ``/health`` and
#: ``/stats`` documents. Bump on any envelope-shape change.
SERVICE_SCHEMA_VERSION = 1

#: Reason phrases for the handful of statuses the service emits.
_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceError(Exception):
    """A typed service failure: stable code + HTTP status + message."""

    code = "internal"
    http_status = 500

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def body(self) -> dict[str, Any]:
        return error_body(self.code, self.message)


class BadRequest(ServiceError):
    """The request cannot be parsed into a valid ExperimentSpec."""

    code = "bad-request"
    http_status = 400


class RequestTimeout(ServiceError):
    """The request head and body did not arrive within the read
    deadline (an idle or stalled client)."""

    code = "request-timeout"
    http_status = 408


class Draining(ServiceError):
    """The server is draining: in-flight cells finish, new work is
    rejected."""

    code = "draining"
    http_status = 503


class QueueFull(ServiceError):
    """One client exceeded its queued-cell budget (fairness guard)."""

    code = "queue-full"
    http_status = 429


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def ndjson_line(payload: Any) -> bytes:
    """One NDJSON stream line (canonical JSON + newline)."""
    return canonical_json(payload).encode() + b"\n"


def result_envelope(
    cell_payload: dict[str, Any], *, source: str | None = None
) -> dict[str, Any]:
    """One completed cell.

    ``source`` (``computed``/``warm``/``attached``) is attached only in
    trace mode — the default envelope stays a pure function of the
    cell payload so warm replays are byte-identical to cold runs.
    """
    envelope: dict[str, Any] = {"event": "result", "cell": cell_payload}
    if source is not None:
        envelope["source"] = source
    return envelope


def rejected_envelope(
    cell: tuple[str, str, str], code: str, message: str
) -> dict[str, Any]:
    """One cell that will not run (drain rejection)."""
    platform, model, dataset = cell
    return {
        "event": "rejected",
        "cell": {"platform": platform, "model": model, "dataset": dataset},
        "error": {"code": code, "message": message},
    }


def end_envelope(
    *, ok: bool, cells: int, counters: dict[str, int] | None = None
) -> dict[str, Any]:
    """The stream terminator (its presence distinguishes a complete
    stream from an aborted one)."""
    envelope: dict[str, Any] = {"event": "end", "ok": ok, "cells": cells}
    if counters is not None:
        envelope["counters"] = counters
    return envelope


def error_body(code: str, message: str) -> dict[str, Any]:
    """The JSON body of a non-streaming error response."""
    return {"event": "error", "error": {"code": code, "message": message}}


# ----------------------------------------------------------------------
# Minimal HTTP/1.1 framing (shared response-side helpers)
# ----------------------------------------------------------------------


def http_response(
    status: int, payload: Any, *, content_type: str = "application/json"
) -> bytes:
    """A complete close-delimited HTTP response with a JSON body."""
    body = canonical_json(payload).encode() + b"\n"
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode() + body


def http_stream_head(status: int = 200) -> bytes:
    """The header block opening an NDJSON stream (close-delimited:
    the body ends when the connection does, which lets the server
    stream results without knowing their total size up front)."""
    return (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        "Content-Type: application/x-ndjson\r\n"
        "Connection: close\r\n"
        "Cache-Control: no-store\r\n"
        "\r\n"
    ).encode()
