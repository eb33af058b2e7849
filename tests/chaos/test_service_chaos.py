"""The service under seeded fault schedules and concurrent clients.

The contract lifted from the grid chaos suite to the wire:

1. Surviving cells are **bit-identical** to fault-free baselines —
   faults may remove results or abort streams, never change payloads.
2. Dedupe never serves one client's failed or faulted cell to another:
   an ``attached`` (or ``warm``) envelope is always healthy.
3. Injected service faults are contained: ``service.accept`` costs one
   request, ``service.stream`` costs one stream — the server stays up,
   other clients are untouched, and the store ends ``verify()``-clean.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.faults import FaultPlan, FaultRule
from repro.platforms import ArtifactStore
from repro.service import ServiceClient, ServiceClientError
from repro.service.protocol import canonical_json

from tests.chaos.conftest import CHAOS_SEED, TINY_DATASETS, tiny_spec
from tests.platforms.conftest import no_leaked_segments  # noqa: F401
from tests.service.conftest import launch  # noqa: F401


def _client(server, **kwargs) -> ServiceClient:
    return ServiceClient(server.host, server.port, **kwargs)


def _run_concurrently(server, specs_by_client, **run_kwargs):
    """Run one stream per client concurrently; return envelopes per id."""
    barrier = threading.Barrier(len(specs_by_client))
    streams: dict[str, list] = {}
    errors: dict[str, Exception] = {}

    def one(client_id, spec):
        try:
            client = _client(server, client_id=client_id)
            barrier.wait(timeout=30)
            streams[client_id] = client.run_grid(spec, **run_kwargs)
        except Exception as exc:
            errors[client_id] = exc

    threads = [
        threading.Thread(target=one, args=(client_id, spec))
        for client_id, spec in specs_by_client.items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return streams, errors


def _assert_payload_integrity(envelopes, baseline_cells):
    """Shared-cell hygiene + bit-identity for one stream's envelopes."""
    for envelope in envelopes:
        if envelope["event"] != "result":
            continue
        cell = envelope["cell"]
        key = (cell["platform"], cell["model"], cell["dataset"])
        if cell.get("status", "ok") == "ok":
            assert canonical_json(cell) == canonical_json(
                baseline_cells[key].to_dict()
            )
        else:
            # A failed cell is only ever delivered to the client whose
            # execution it was — never via dedupe or the warm path.
            assert envelope.get("source", "computed") == "computed"


def _wait_idle(client, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = client.stats()["service"]
        if stats["queued"] == 0 and stats["running"] == 0:
            return True
        time.sleep(0.05)
    return False


class TestSimulateFaults:
    def test_faulted_cells_never_shared_across_clients(
        self, launch, baseline_cells
    ):
        # Serial: plan.fired counts parent-side fires, and process
        # workers would re-arm (and count on) their own copy.
        server = launch(jobs=1)
        spec = tiny_spec()
        plan = FaultPlan(
            [
                FaultRule("platform.simulate", times=2),
                FaultRule(
                    "platform.simulate", action="latency", latency_s=0.1
                ),
            ],
            seed=CHAOS_SEED,
        )
        with plan:
            streams, errors = _run_concurrently(
                server,
                {f"chaos-{i}": spec for i in range(4)},
                trace=True,
            )
            assert plan.fired  # the schedule really hit
        assert errors == {}
        failed_envelopes = []
        for envelopes in streams.values():
            assert envelopes[-1]["event"] == "end"
            _assert_payload_integrity(envelopes, baseline_cells)
            failed_envelopes += [
                e
                for e in envelopes
                if e["event"] == "result"
                and e["cell"].get("status") == "failed"
            ]
        # Each injected failure was delivered to exactly one owner.
        assert len(failed_envelopes) <= 2
        for envelope in failed_envelopes:
            assert envelope["source"] == "computed"
            assert (
                "InjectedFault" in envelope["cell"]["failure"]["error_type"]
            )
        stats = _client(server).stats()["service"]
        assert stats["failed"] == len(failed_envelopes)
        # Failures were never cached: a fault-free pass heals fully.
        healed = _client(server, client_id="healer").run_grid(
            spec, order="spec"
        )
        results = [e["cell"] for e in healed if e["event"] == "result"]
        assert [canonical_json(c) for c in results] == [
            canonical_json(baseline_cells[key].to_dict())
            for key in spec.cells()
        ]


class TestStoreCorruption:
    def test_corruption_is_quarantined_never_served(
        self, launch, tmp_path, baseline_cells
    ):
        store_root = tmp_path / "store"
        server = launch(store=ArtifactStore(store_root), jobs=2)
        spec = tiny_spec()
        plan = FaultPlan(
            [
                FaultRule("store.save.bytes", action="corrupt", times=2),
                FaultRule("store.load.bytes", action="corrupt", times=2),
            ],
            seed=CHAOS_SEED,
        )
        with plan:
            # Cold pass writes (some corrupted), warm pass reads them
            # back (some reads corrupted) — concurrently.
            for _ in range(2):
                streams, errors = _run_concurrently(
                    server,
                    {f"corrupt-{i}": spec for i in range(2)},
                    trace=True,
                )
                assert errors == {}
                for envelopes in streams.values():
                    assert envelopes[-1]["event"] == "end"
                    # Whatever the store did, no client ever saw a
                    # corrupted or non-baseline payload.
                    _assert_payload_integrity(envelopes, baseline_cells)
        server.stop()
        # The store ends verify()-clean: the scrub converges.
        store = ArtifactStore(store_root)
        store.verify()  # first pass quarantines anything corrupt
        assert store.verify()["quarantined"] == 0  # scrub converges


class TestServiceSites:
    def test_accept_fault_costs_one_request_not_the_server(self, launch):
        server = launch(jobs=1)
        plan = FaultPlan([FaultRule("service.accept", times=1)], seed=CHAOS_SEED)
        with plan:
            with pytest.raises(ServiceClientError) as excinfo:
                _client(server).health()
            assert excinfo.value.status == 500
            assert excinfo.value.code == "internal"
            assert plan.fired_at("service.accept") == 1
            # The very next request is served normally.
            assert _client(server).health()["status"] == "ok"
            envelopes = _client(server).run_grid(tiny_spec())
            assert envelopes[-1]["event"] == "end"
            assert envelopes[-1]["ok"] is True

    def test_stream_fault_aborts_one_client_others_unaffected(
        self, launch, baseline_cells
    ):
        server = launch(jobs=2)
        spec = tiny_spec()
        plan = FaultPlan(
            [
                FaultRule("service.stream", times=1, match="victim"),
                FaultRule(
                    "platform.simulate", action="latency", latency_s=0.1
                ),
            ],
            seed=CHAOS_SEED,
        )
        with plan:
            streams, errors = _run_concurrently(
                server,
                {"victim": spec, "bystander-1": spec, "bystander-2": spec},
                trace=True,
            )
        assert errors == {}
        assert plan.fired_at("service.stream") == 1
        # The victim's stream was cut before its end envelope...
        victim = streams["victim"]
        assert [e for e in victim if e["event"] == "end"] == []
        # ...while the bystanders received complete, healthy grids.
        for name in ("bystander-1", "bystander-2"):
            envelopes = streams[name]
            assert envelopes[-1]["event"] == "end"
            assert envelopes[-1]["ok"] is True
            _assert_payload_integrity(envelopes, baseline_cells)
            results = [e for e in envelopes if e["event"] == "result"]
            assert len(results) == len(list(spec.cells()))
        # The victim's tickets were detached: nothing wedged.
        client = _client(server)
        assert _wait_idle(client)
        assert client.health()["status"] == "ok"


class TestChaosStorm:
    def test_overlapping_specs_under_combined_schedule(
        self, launch, tmp_path, baseline_cells
    ):
        """Store + simulate + stream faults, four overlapping clients."""
        store_root = tmp_path / "store"
        server = launch(store=ArtifactStore(store_root), jobs=4)
        full = tiny_spec()
        half = tiny_spec(datasets=TINY_DATASETS[:1])
        plan = FaultPlan(
            [
                FaultRule("platform.simulate", rate=0.4, times=3),
                FaultRule("store.save.bytes", action="corrupt", times=1),
                FaultRule("service.stream", rate=0.05, times=1),
            ],
            seed=CHAOS_SEED,
        )
        with plan:
            streams, errors = _run_concurrently(
                server,
                {
                    "storm-0": full,
                    "storm-1": full,
                    "storm-2": half,
                    "storm-3": half,
                },
                trace=True,
            )
        assert errors == {}
        for envelopes in streams.values():
            # Aborted streams are allowed (the stream fault); whatever
            # arrived obeys the integrity + isolation contract.
            _assert_payload_integrity(envelopes, baseline_cells)
        client = _client(server)
        assert _wait_idle(client)
        assert client.health()["status"] == "ok"
        # Disarmed, the service serves the exact baseline grid again.
        healed = client.run_grid(full, order="spec")
        results = [e["cell"] for e in healed if e["event"] == "result"]
        assert [canonical_json(c) for c in results] == [
            canonical_json(baseline_cells[key].to_dict())
            for key in full.cells()
        ]
        server.stop()
        store = ArtifactStore(store_root)
        store.verify()
        assert store.verify()["quarantined"] == 0
