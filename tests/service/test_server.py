"""End-to-end server behavior over real sockets.

Covers the acceptance criteria directly: 8 concurrent clients with
overlapping specs get byte-identical grids while each shared cell is
computed exactly once (dedupe counter asserted), abandoned streams
leave the service healthy, and drain keeps ``/health`` at 200 while
rejecting queued and new work with typed errors.
"""

from __future__ import annotations

import logging
import socket
import threading
import time

import pytest

from repro.api import Session
from repro.faults import FaultPlan, FaultRule
from repro.service import ServiceClientError
from repro.service import server as server_module
from repro.service.protocol import canonical_json

from tests.service.conftest import client_for, tiny_spec


def _raw_request(server, data: bytes) -> bytes:
    with socket.create_connection(
        (server.host, server.port), timeout=30
    ) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            block = sock.recv(65536)
            if not block:
                break
            chunks.append(block)
    return b"".join(chunks)


def _wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestEndpoints:
    def test_health_ok(self, launch):
        server = launch(jobs=1)
        assert client_for(server).health() == {"schema": 1, "status": "ok"}

    def test_stats_surfaces_registry_and_store(self, launch, tmp_path):
        from repro.platforms import ArtifactStore

        server = launch(store=ArtifactStore(tmp_path / "store"), jobs=1)
        payload = client_for(server).stats()
        assert payload["schema"] == 1
        assert payload["service"]["submitted"] == 0
        # StoreStats counters ride along.
        assert set(payload["store"]) >= {"hits", "misses", "puts"}

    def test_stats_store_is_null_without_a_store(self, launch):
        server = launch(jobs=1)
        assert client_for(server).stats()["store"] is None

    def test_unknown_path_is_typed_404(self, launch):
        server = launch(jobs=1)
        with pytest.raises(ServiceClientError) as excinfo:
            client_for(server)._request_json("GET", "/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "not-found"

    def test_wrong_method_is_405(self, launch):
        server = launch(jobs=1)
        raw = _raw_request(
            server, b"POST /health HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert raw.startswith(b"HTTP/1.1 405 ")

    def test_malformed_body_is_typed_400(self, launch):
        server = launch(jobs=1)
        body = b"{not json"
        raw = _raw_request(
            server,
            b"POST /run HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body,
        )
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b'"code":"bad-request"' in raw

    @pytest.mark.parametrize(
        "head",
        [
            b"POST /run HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"POST /run HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            # Above the 64 KiB stream-reader limit, so the head never
            # ends inside the buffer.
            b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * (70 * 1024) + b"\r\n\r\n",
        ],
        ids=["non-numeric-length", "negative-length", "oversized-head"],
    )
    def test_malformed_head_is_typed_400(self, launch, head):
        server = launch(jobs=1)
        raw = _raw_request(server, head)
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b'"code":"bad-request"' in raw
        # The server survives and keeps answering.
        assert client_for(server).health()["status"] == "ok"

    def test_invalid_spec_is_typed_400(self, launch):
        server = launch(jobs=1)
        # ExperimentSpec validates eagerly client-side, so an invalid
        # document has to go over the wire raw.
        body = canonical_json(
            {"platforms": ["no-such-platform"], "schema_version": 1}
        ).encode()
        raw = _raw_request(
            server,
            b"POST /run HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body,
        )
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b'"code":"bad-request"' in raw

    def test_unknown_order_param_rejected(self, launch):
        server = launch(jobs=1)
        with pytest.raises(ServiceClientError) as excinfo:
            client_for(server).run(tiny_spec(), order="chaos")
        assert excinfo.value.code == "bad-request"


class TestStreaming:
    def test_cold_run_streams_full_grid(self, launch):
        server = launch(jobs=2)
        spec = tiny_spec()
        envelopes = client_for(server).run_grid(spec, trace=True)
        results = [e for e in envelopes if e["event"] == "result"]
        assert {
            (e["cell"]["platform"], e["cell"]["model"], e["cell"]["dataset"])
            for e in results
        } == set(spec.cells())
        assert all(e["source"] == "computed" for e in results)
        end = envelopes[-1]
        assert end["event"] == "end"
        assert end["ok"] is True
        assert end["cells"] == len(list(spec.cells()))

    def test_warm_run_serves_from_memo_without_queueing(self, launch):
        server = launch(jobs=2)
        spec = tiny_spec()
        client = client_for(server)
        client.run_grid(spec)
        warm = client.run_grid(spec, trace=True)
        sources = [e["source"] for e in warm if e["event"] == "result"]
        assert sources == ["warm"] * len(list(spec.cells()))
        stats = client.stats()["service"]
        # The warm pass never touched the queue.
        assert stats["submitted"] == len(list(spec.cells()))
        assert stats["executed"] == len(list(spec.cells()))

    def test_default_envelopes_carry_no_provenance(self, launch):
        server = launch(jobs=2)
        spec = tiny_spec()
        client = client_for(server)
        cold = client.run_grid(spec, order="spec")
        warm = client.run_grid(spec, order="spec")
        # Cold-vs-warm byte identity: same canonical lines.
        assert [canonical_json(e) for e in cold] == [
            canonical_json(e) for e in warm
        ]
        assert all("source" not in e for e in cold)

    def test_queue_budget_rejects_oversized_spec_atomically(self, launch):
        server = launch(jobs=1, max_queue_per_client=2)
        spec = tiny_spec()  # 4 cells > budget 2
        client = client_for(server, client_id="greedy")
        with pytest.raises(ServiceClientError) as excinfo:
            client.run(spec)
        assert excinfo.value.status == 429
        assert excinfo.value.code == "queue-full"
        # All-or-nothing: the partial submission was withdrawn, so a
        # within-budget spec still fits.
        stats = client.stats()["service"]
        assert stats["queued"] == 0
        small = spec.replace(datasets=spec.datasets[:1])  # 2 cells
        envelopes = client.run_grid(small)
        assert envelopes[-1]["event"] == "end"


class TestConcurrentClients:
    def test_eight_clients_share_each_cell_exactly_once(self, launch):
        server = launch(jobs=4)
        spec = tiny_spec()
        n_clients = 8
        barrier = threading.Barrier(n_clients)
        streams: dict[int, list] = {}
        errors: list = []

        def one_client(i: int) -> None:
            try:
                client = client_for(server, client_id=f"client-{i}")
                barrier.wait(timeout=30)
                streams[i] = client.run_grid(spec, trace=True, order="spec")
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        # Slow the simulate body slightly so the clients genuinely
        # overlap in flight (attach) instead of racing to warm hits.
        plan = FaultPlan(
            [FaultRule("platform.simulate", action="latency", latency_s=0.2)],
            seed=1,
        )
        threads = [
            threading.Thread(target=one_client, args=(i,))
            for i in range(n_clients)
        ]
        with plan:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert errors == []
        assert len(streams) == n_clients

        baseline = Session(spec).run()
        expected = [cell.to_dict() for cell in baseline.cells]
        for envelopes in streams.values():
            results = [e for e in envelopes if e["event"] == "result"]
            # Byte-identity with the embedded API, for every client.
            assert [
                canonical_json(e["cell"]) for e in results
            ] == [canonical_json(c) for c in expected]
            assert envelopes[-1]["ok"] is True

        stats = client_for(server).stats()["service"]
        # Each shared cell computed exactly once...
        assert stats["executed"] == len(list(spec.cells()))
        assert stats["failed"] == 0
        assert stats["requeued"] == 0
        # ...while the 8x overlap was answered by dedupe + warm hits.
        counters = [e["counters"] for e in
                    (s[-1] for s in streams.values())]
        total = {
            key: sum(c[key] for c in counters)
            for key in ("computed", "attached", "warm", "rejected")
        }
        assert total["computed"] == len(list(spec.cells()))
        assert total["attached"] == stats["deduped"]
        assert stats["deduped"] >= 1  # clients really did attach in flight
        assert total["rejected"] == 0
        assert (
            total["computed"] + total["attached"] + total["warm"]
            == n_clients * len(list(spec.cells()))
        )


class TestAbandonment:
    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "process"])
    def test_dropped_stream_leaves_service_healthy(self, launch, jobs):
        server = launch(jobs=jobs)
        spec = tiny_spec()
        client = client_for(server, client_id="quitter")
        stream = client.run(spec, trace=True)
        iterator = iter(stream)
        first = next(iterator)
        assert first["event"] == "result"
        # The client walks away mid-stream.
        stream.close()
        # The service finishes or cancels the in-flight work and goes
        # idle; nothing is wedged waiting on the dead connection.
        stats_client = client_for(server)
        assert _wait_until(
            lambda: (
                (s := stats_client.stats()["service"])["queued"] == 0
                and s["running"] == 0
            )
        )
        assert stats_client.health()["status"] == "ok"
        # A fresh client still gets the complete grid.
        envelopes = stats_client.run_grid(spec, order="spec")
        results = [e for e in envelopes if e["event"] == "result"]
        assert len(results) == len(list(spec.cells()))
        assert envelopes[-1]["ok"] is True


IDLE = b""
STALLED_BODY = b"POST /run HTTP/1.1\r\nContent-Length: 100\r\n\r\nabc"


def _open_partial(server, data: bytes) -> socket.socket:
    """A connection that sends ``data`` and then nothing more."""
    sock = socket.create_connection((server.host, server.port), timeout=30)
    if data:
        sock.sendall(data)
    return sock


def _read_all(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        block = sock.recv(65536)
        if not block:
            return b"".join(chunks)
        chunks.append(block)


class TestReadDeadline:
    @pytest.mark.parametrize(
        "sent", [IDLE, STALLED_BODY], ids=["idle", "stalled-body"]
    )
    def test_slow_request_is_typed_408(self, launch, monkeypatch, sent):
        monkeypatch.setattr(server_module, "_READ_DEADLINE_S", 0.2)
        server = launch(jobs=1)
        with _open_partial(server, sent) as sock:
            raw = _read_all(sock)
        assert raw.startswith(b"HTTP/1.1 408 ")
        assert b'"code":"request-timeout"' in raw
        # The server survives and keeps answering.
        assert client_for(server).health()["status"] == "ok"

    def test_drain_closes_reading_connections_quietly(self, launch, caplog):
        server = launch(jobs=1)
        idle = _open_partial(server, IDLE)
        stalled = _open_partial(server, STALLED_BODY)
        try:
            assert client_for(server).health()["status"] == "ok"
            with caplog.at_level(logging.ERROR):
                server.stop(timeout=30)
            # Both connections are closed without a response...
            assert _read_all(idle) == b""
            assert _read_all(stalled) == b""
        finally:
            idle.close()
            stalled.close()
        # ...and asyncio logged no cancelled handler.
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []


class TestDrain:
    def test_drain_finishes_in_flight_rejects_queued_and_exits(self, launch):
        server = launch(jobs=2, batch=2)
        spec = tiny_spec()
        client = client_for(server, client_id="drained")
        envelopes: list = []
        failures: list = []

        def consume() -> None:
            try:
                envelopes.extend(client.run_grid(spec, trace=True))
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        # Slow cells hold the stream open long enough to drain under it.
        plan = FaultPlan(
            [FaultRule("platform.simulate", action="latency", latency_s=0.6)],
            seed=1,
        )
        with plan:
            thread = threading.Thread(target=consume)
            thread.start()
            # Let the dispatcher acquire its first batch, then drain.
            assert _wait_until(
                lambda: client.stats()["service"]["running"] > 0
            )
            server.drain()
            # /health answers 200 throughout the drain window.
            health = client.health()
            assert health["status"] == "draining"
            # New submissions are rejected with the typed error.
            with pytest.raises(ServiceClientError) as excinfo:
                client.run(spec)
            assert excinfo.value.status == 503
            assert excinfo.value.code == "draining"
            thread.join(timeout=60)
        assert failures == []
        results = [e for e in envelopes if e["event"] == "result"]
        rejected = [e for e in envelopes if e["event"] == "rejected"]
        # In-flight cells finished; queued cells were rejected, each
        # with the typed drain code; the union covers the whole grid.
        assert len(results) >= 1
        assert len(results) + len(rejected) == len(list(spec.cells()))
        assert all(e["error"]["code"] == "draining" for e in rejected)
        assert envelopes[-1]["event"] == "end"
        assert envelopes[-1]["ok"] is (not rejected)
        # With the last stream gone the server exits on its own.
        assert _wait_until(lambda: not _port_open(server))

    def test_drain_with_no_streams_exits_promptly(self, launch):
        server = launch(jobs=1)
        assert client_for(server).health()["status"] == "ok"
        server.drain()
        assert _wait_until(lambda: not _port_open(server))
        server.stop()


def _port_open(server) -> bool:
    try:
        with socket.create_connection(
            (server.host, server.port), timeout=0.5
        ):
            return True
    except OSError:
        return False
