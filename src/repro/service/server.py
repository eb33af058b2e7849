"""The asyncio job server and its dispatcher.

Three layers, one file:

- :class:`SimulationService` — the transport-free core. Owns the
  shared :class:`~repro.api.session.Session`, the
  :class:`~repro.service.registry.JobRegistry` and one dispatcher
  thread that drains the registry in fair micro-batches through
  :meth:`Session.compute_cells` (serial, or the process-pool lanes
  when the session's ``jobs > 1``; a lane keeps the datasets it built
  across micro-batches, so no batch rebuilds one). Warm cells are
  answered from the store/memo without ever entering the queue.
- :class:`ReproServer` — the asyncio HTTP/1.1 front end: ``POST /run``
  streams NDJSON result envelopes as cells complete, ``GET /health``
  and ``GET /stats`` answer JSON documents. All blocking work (store
  peeks, registry submission) runs via ``loop.run_in_executor``; the
  event loop itself only parses, routes and writes.
- :class:`BackgroundServer` — runs a :class:`ReproServer` on a daemon
  thread with its own event loop; the shape the test harness, the
  chaos suite and the CI smoke job drive.

Drain: ``SIGTERM``/``SIGINT`` (or :meth:`ReproServer.request_drain`)
flips the registry into drain mode — queued cells come back as typed
``draining`` rejections, in-flight cells finish and deliver, new
``POST /run`` submissions get a 503. ``/health`` keeps answering 200
(status ``"draining"``) until the last stream closes, then the server
closes the connections still sending their request and exits.

A request's head and body must arrive within ``_READ_DEADLINE_S`` of
the connection opening; an idle or stalled client gets a typed 408.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable
from urllib.parse import parse_qs, urlsplit

from repro.api.results import CellResult
from repro.api.session import Session
from repro.api.spec import ExperimentSpec, GridKey
from repro.faults import inject
from repro.faults.errors import InjectedFault
from repro.platforms.failures import CellFailure
from repro.service.protocol import (
    SERVICE_SCHEMA_VERSION,
    BadRequest,
    RequestTimeout,
    ServiceError,
    end_envelope,
    error_body,
    http_response,
    http_stream_head,
    ndjson_line,
    rejected_envelope,
    result_envelope,
)
from repro.service.registry import Delivery, JobRegistry, Job, Ticket

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platforms.store import ArtifactStore

__all__ = ["SubmitPlan", "SimulationService", "ReproServer", "BackgroundServer"]

#: Upper bound on request head + body sizes (a spec document is small;
#: anything larger is a client bug or abuse).
_MAX_HEAD_BYTES = 16 * 1024
_MAX_BODY_BYTES = 1024 * 1024
#: Seconds a client has to send its whole request (head and body).
_READ_DEADLINE_S = 30.0


@dataclass
class SubmitPlan:
    """What one ``/run`` submission resolved to.

    ``warm`` cells were answered from the store/memo and never touched
    the queue; ``tickets`` await the dispatcher. ``order`` is the
    spec's canonical cell order (used by ``?order=spec`` streams).
    """

    warm: list[tuple[GridKey, CellResult]]
    tickets: list[Ticket]
    order: list[GridKey]


class SimulationService:
    """The transport-free service core: session + registry + dispatcher.

    Args:
        session: the shared execution session (its ``jobs`` setting
            picks serial or process fan-out).
        max_queue_per_client: per-client budget of undelivered cells.
        batch: max cells the dispatcher acquires per micro-batch
            (default: the session's worker count, so one batch
            saturates the pool without hoarding the queue).
    """

    def __init__(
        self,
        session: Session,
        *,
        max_queue_per_client: int = 1024,
        batch: int | None = None,
    ) -> None:
        self.session = session
        self.registry = JobRegistry(max_queue_per_client=max_queue_per_client)
        self.batch = max(1, batch if batch is not None else session.jobs)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatch", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the dispatcher and release session resources."""
        self._stop.set()
        self.registry.drain()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None
        self.session.close()

    # -- client side ---------------------------------------------------

    def submit(
        self,
        client: str,
        spec: ExperimentSpec,
        deliver: Callable[[Delivery], None],
    ) -> SubmitPlan:
        """Resolve one spec into warm results + queued tickets.

        All-or-nothing: if any cell is rejected (drain, over budget)
        the tickets already taken are detached and the typed error
        propagates — a client never receives a silently partial grid.
        """
        order = list(spec.cells())
        warm: list[tuple[GridKey, CellResult]] = []
        tickets: list[Ticket] = []
        try:
            for cell in order:
                result = self.session.peek_cell(cell, spec=spec)
                if result is not None:
                    warm.append((cell, result))
                    continue
                key = self.session.cell_content_key(cell, spec=spec)
                tickets.append(
                    self.registry.submit(client, key, cell, spec, deliver)
                )
        except BaseException:
            for ticket in tickets:
                self.registry.detach(ticket)
            raise
        return SubmitPlan(warm=warm, tickets=tickets, order=order)

    def stats(self) -> dict[str, object]:
        """The ``/stats`` document: registry counters + StoreStats."""
        return {
            "schema": SERVICE_SCHEMA_VERSION,
            "service": self.registry.stats(),
            "store": self.session.store_stats(),
        }

    # -- dispatcher ----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            batch = self.registry.acquire(self.batch, timeout=0.1)
            if not batch:
                if self._stop.is_set() or (
                    self.registry.draining and self.registry.idle()
                ):
                    return
                continue
            for group in self._group_by_workspace(batch):
                self._run_group(group)

    @staticmethod
    def _group_by_workspace(batch: list[Job]) -> list[list[Job]]:
        """Split a batch by execution universe.

        Cells sharing (seed, scale, platform configuration) run through
        one :meth:`Session.compute_cells` call — one workspace, one
        fan-out — so overlapping client specs share topology caches.
        """
        groups: dict[object, list[Job]] = {}
        for job in batch:
            key = (job.spec.seed, job.spec.scale, job.spec.context())
            groups.setdefault(key, []).append(job)
        return list(groups.values())

    def _run_group(self, group: list[Job]) -> None:
        by_cell = {job.cell: job for job in group}
        spec = group[0].spec
        try:
            for cell, result in self.session.compute_cells(
                list(by_cell), spec=spec, on_error="collect"
            ):
                job = by_cell.pop(cell)
                if result.status == "ok":
                    self.registry.complete(job, result)
                else:
                    self.registry.fail(job, result)
        except BaseException as exc:
            # compute_cells collects per-cell failures; anything that
            # still escapes (a broken dataset axis, an injected fault
            # outside the cell body) fails the remaining jobs of this
            # group as typed results and keeps the dispatcher alive.
            for cell, job in by_cell.items():
                self.registry.fail(
                    job,
                    CellResult.from_failure(
                        CellFailure.from_exception(cell, exc)
                    ),
                )
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise


class ReproServer:
    """The asyncio HTTP front end over one :class:`SimulationService`."""

    def __init__(
        self,
        service: SimulationService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._streams = 0
        self._conn_ids = itertools.count(1)
        self._drain_requested: asyncio.Event | None = None
        # Handler tasks still reading their request, with their writer.
        self._reading: dict[asyncio.Task[None], asyncio.StreamWriter] = {}

    # -- lifecycle -----------------------------------------------------

    async def serve(
        self,
        *,
        ready: threading.Event | None = None,
        install_signals: bool = True,
    ) -> None:
        """Run until drained (blocks the calling coroutine).

        ``ready`` is set once the socket is bound (``self.port`` holds
        the resolved port — pass ``port=0`` for an ephemeral one).
        """
        self._loop = asyncio.get_running_loop()
        self._drain_requested = asyncio.Event()
        server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(signum, self.request_drain)
                except (NotImplementedError, RuntimeError):
                    break
        self.service.start()
        if ready is not None:
            ready.set()
        try:
            await self._drain_requested.wait()
            # Graceful drain: the registry has already rejected its
            # queue; wait for in-flight streams to finish delivering.
            while self._streams > 0 or not self.service.registry.idle():
                await asyncio.sleep(0.05)
        finally:
            server.close()
            # A connection still sending its request reads EOF and its
            # handler returns; none is left for asyncio.run to cancel.
            reading = list(self._reading.items())
            for _task, writer in reading:
                writer.close()
            await asyncio.gather(
                *(task for task, _ in reading), return_exceptions=True
            )
            await server.wait_closed()
            self.service.stop()

    def request_drain(self) -> None:
        """Begin graceful shutdown (signal handler / test hook).

        Threadsafe via ``call_soon_threadsafe`` from other threads;
        idempotent.
        """
        self.service.registry.drain()
        if self._drain_requested is not None:
            self._drain_requested.set()

    @property
    def draining(self) -> bool:
        return self.service.registry.draining

    # -- request plumbing ----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            task = asyncio.current_task()
            assert task is not None
            self._reading[task] = writer
            try:
                method, target, headers, body = await asyncio.wait_for(
                    self._read_request(reader), _READ_DEADLINE_S
                )
            except asyncio.TimeoutError:
                error = RequestTimeout(
                    f"request not received within {_READ_DEADLINE_S:g}s"
                )
                writer.write(http_response(error.http_status, error.body()))
                return
            except ServiceError as exc:
                writer.write(http_response(exc.http_status, exc.body()))
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            finally:
                del self._reading[task]
            parts = urlsplit(target)
            path = parts.path
            query = parse_qs(parts.query)
            try:
                inject("service.accept", key=f"{method} {path}")
                if method == "GET" and path == "/health":
                    await self._send_health(writer)
                elif method == "GET" and path == "/stats":
                    await self._send_stats(writer)
                elif method == "POST" and path == "/run":
                    await self._stream_run(writer, headers, query, body)
                elif path in ("/health", "/stats", "/run"):
                    writer.write(
                        http_response(
                            405, error_body("method-not-allowed", method)
                        )
                    )
                else:
                    writer.write(
                        http_response(404, error_body("not-found", path))
                    )
            except ServiceError as exc:
                writer.write(http_response(exc.http_status, exc.body()))
            except InjectedFault as exc:
                # service.accept fault: typed 500, connection closes,
                # the server itself stays up.
                writer.write(
                    http_response(500, error_body("internal", str(exc)))
                )
        except ConnectionError:
            pass
        finally:
            try:
                if writer.can_write_eof():
                    writer.write_eof()
            except (OSError, RuntimeError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError as exc:
            raise BadRequest("request head too large") from exc
        if len(head) > _MAX_HEAD_BYTES:
            raise BadRequest("request head too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError as exc:
            raise BadRequest(f"malformed request line: {lines[0]!r}") from exc
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise BadRequest(f"malformed Content-Length: {raw_length!r}")
        length = int(raw_length)
        if length > _MAX_BODY_BYTES:
            raise BadRequest(f"request body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    # -- endpoints -----------------------------------------------------

    async def _send_health(self, writer: asyncio.StreamWriter) -> None:
        writer.write(
            http_response(
                200,
                {
                    "schema": SERVICE_SCHEMA_VERSION,
                    "status": "draining" if self.draining else "ok",
                },
            )
        )
        await writer.drain()

    async def _send_stats(self, writer: asyncio.StreamWriter) -> None:
        loop = self._loop
        assert loop is not None
        payload = await loop.run_in_executor(None, self.service.stats)
        writer.write(http_response(200, payload))
        await writer.drain()

    async def _stream_run(
        self,
        writer: asyncio.StreamWriter,
        headers: dict[str, str],
        query: dict[str, list[str]],
        body: bytes,
    ) -> None:
        spec = self._parse_spec(body)
        trace = query.get("trace", ["0"])[-1] in ("1", "true")
        order = query.get("order", ["completion"])[-1]
        if order not in ("completion", "spec"):
            raise BadRequest(f"unknown order {order!r}")
        client = headers.get("x-repro-client") or f"conn-{next(self._conn_ids)}"
        loop = self._loop
        assert loop is not None
        queue: asyncio.Queue[Delivery] = asyncio.Queue()

        def deliver(delivery: Delivery) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, delivery)

        # Store peeks + registry submission block; keep them off the
        # event loop. Typed rejections (draining, queue-full) surface
        # before the stream head, as plain HTTP errors.
        plan = await loop.run_in_executor(
            None, self.service.submit, client, spec, deliver
        )
        self._streams += 1
        counters = {"warm": 0, "computed": 0, "attached": 0, "rejected": 0}
        try:
            writer.write(http_stream_head())
            await writer.drain()
            buffered: dict[GridKey, dict] = {}

            async def emit(cell: GridKey, envelope: dict) -> None:
                inject("service.stream", key=client)
                if order == "spec":
                    buffered[cell] = envelope
                else:
                    writer.write(ndjson_line(envelope))
                    await writer.drain()

            for cell, result in plan.warm:
                counters["warm"] += 1
                await emit(
                    cell,
                    result_envelope(
                        result.to_dict(), source="warm" if trace else None
                    ),
                )
            remaining = len(plan.tickets)
            while remaining:
                delivery = await queue.get()
                remaining -= 1
                if delivery.kind == "rejected":
                    counters["rejected"] += 1
                    await emit(
                        delivery.cell,
                        rejected_envelope(
                            delivery.cell,
                            delivery.code or "rejected",
                            "cell rejected before execution",
                        ),
                    )
                    continue
                source = "attached" if delivery.attached else "computed"
                counters[source] += 1
                assert delivery.result is not None
                await emit(
                    delivery.cell,
                    result_envelope(
                        delivery.result.to_dict(),
                        source=source if trace else None,
                    ),
                )
            if order == "spec":
                for cell in plan.order:
                    envelope = buffered.get(cell)
                    if envelope is not None:
                        writer.write(ndjson_line(envelope))
                await writer.drain()
            done = end_envelope(
                ok=counters["rejected"] == 0,
                cells=len(plan.order) - counters["rejected"],
                counters=dict(counters) if trace else None,
            )
            inject("service.stream", key=client)
            writer.write(ndjson_line(done))
            await writer.drain()
        except InjectedFault:
            # service.stream fault: this stream aborts mid-flight (no
            # end envelope — the client sees a truncated stream), other
            # clients are untouched.
            pass
        finally:
            self._streams -= 1
            # Idempotent: tickets already delivered are skipped. This
            # is the abandonment path — a fault or disconnect must not
            # leave orphan waiters pinning jobs.
            for ticket in plan.tickets:
                self.service.registry.detach(ticket)

    @staticmethod
    def _parse_spec(body: bytes) -> ExperimentSpec:
        if not body:
            raise BadRequest("empty request body; expected an ExperimentSpec")
        try:
            payload = json.loads(body)
        except ValueError as exc:
            raise BadRequest(f"request body is not JSON: {exc}") from exc
        try:
            return ExperimentSpec.from_dict(payload)
        except (TypeError, ValueError, KeyError) as exc:
            raise BadRequest(f"invalid experiment spec: {exc}") from exc


class BackgroundServer:
    """A :class:`ReproServer` on a daemon thread (test/CI harness).

    ::

        with BackgroundServer(store=store, jobs=4) as server:
            client = ServiceClient(server.host, server.port)
            ...

    ``drain()`` triggers the SIGTERM path without a signal; ``stop()``
    drains and joins the thread. Exiting the context stops the server.
    """

    def __init__(
        self,
        session: Session | None = None,
        *,
        store: "ArtifactStore | None" = None,
        jobs: int = 1,
        host: str = "127.0.0.1",
        max_queue_per_client: int = 1024,
        batch: int | None = None,
    ) -> None:
        if session is None:
            session = Session(store=store, jobs=jobs)
        self.session = session
        self.service = SimulationService(
            session,
            max_queue_per_client=max_queue_per_client,
            batch=batch,
        )
        self.server = ReproServer(self.service, host=host, port=0)
        self.host = host
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._failure: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._main, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError(
                "service did not come up within 30s"
            ) from self._failure
        return self

    def _main(self) -> None:
        try:
            asyncio.run(
                self.server.serve(ready=self._ready, install_signals=False)
            )
        except BaseException as exc:  # surfaced by start()/stop()
            self._failure = exc
        finally:
            self._ready.set()

    def drain(self) -> None:
        """Trigger graceful drain (the SIGTERM path), without blocking."""
        loop = self.server._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.server.request_drain)

    def stop(self, timeout: float = 60.0) -> None:
        """Drain and wait for the server thread to exit."""
        self.drain()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                raise RuntimeError("service did not drain within timeout")
            self._thread = None
        if self._failure is not None:
            raise self._failure

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
