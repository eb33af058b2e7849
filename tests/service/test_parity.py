"""Differential suite: the service is the embedded API, served.

Any grid executed through the service must be byte-identical to
:meth:`Session.run` — the typed-result JSON, the store file tree it
leaves behind, and the warm-replay behavior — serial and on the
process pool, with scenario refs and catalog datasets alike.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.api import GridResult, Session
from repro.api.results import CellResult
from repro.platforms import ArtifactStore
from repro.service.protocol import canonical_json

from tests.service.conftest import TINY_DATASETS, client_for, tiny_spec


def _tree(root: Path) -> dict[str, str]:
    """Relative path → content hash for every file under ``root``."""
    return {
        str(path.relative_to(root)): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _result_cells(envelopes) -> list[dict]:
    return [e["cell"] for e in envelopes if e["event"] == "result"]


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "process"])
class TestServiceSessionParity:
    def test_results_and_store_tree_byte_identical(
        self, tmp_path, launch, jobs
    ):
        spec = tiny_spec()
        # Ground truth: the embedded API into its own store.
        session = Session(
            spec, store=ArtifactStore(tmp_path / "session"), jobs=jobs
        )
        grid = session.run()
        session.close()

        server = launch(
            store=ArtifactStore(tmp_path / "service"), jobs=jobs
        )
        envelopes = client_for(server).run_grid(spec, order="spec")
        assert envelopes[-1]["ok"] is True

        # Typed-result JSON: cell for cell, byte for byte.
        assert [canonical_json(c) for c in _result_cells(envelopes)] == [
            canonical_json(cell.to_dict()) for cell in grid.cells
        ]
        # The round-tripped grid is the grid.
        rebuilt = GridResult(
            spec=spec,
            cells=tuple(
                CellResult.from_dict(c) for c in _result_cells(envelopes)
            ),
        )
        assert rebuilt.cells == grid.cells

        # Store file trees: same entries, same bytes — the service is
        # indistinguishable from the embedded API on disk.
        server.stop()
        assert _tree(tmp_path / "service") == _tree(tmp_path / "session")

    def test_warm_replay_matches_cold_run(self, tmp_path, launch, jobs):
        spec = tiny_spec()
        store_root = tmp_path / "shared"
        server = launch(
            store=ArtifactStore(store_root), jobs=jobs
        )
        client = client_for(server)
        cold = client.run_grid(spec, order="spec")
        warm = client.run_grid(spec, order="spec")
        assert [canonical_json(e) for e in warm] == [
            canonical_json(e) for e in cold
        ]
        # The warm pass was answered by the store/memo, not the queue.
        stats = client.stats()["service"]
        assert stats["executed"] == len(list(spec.cells()))
        server.stop()

        # A *new* server over the same store is warm from the start,
        # and still byte-identical — store-speed replay across
        # processes and restarts.
        reborn = launch(
            store=ArtifactStore(store_root), jobs=jobs
        )
        replay_client = client_for(reborn)
        replay = replay_client.run_grid(spec, order="spec", trace=True)
        assert [e["source"] for e in replay if e["event"] == "result"] == [
            "warm"
        ] * len(list(spec.cells()))
        assert [canonical_json(c) for c in _result_cells(replay)] == [
            canonical_json(c) for c in _result_cells(cold)
        ]
        assert replay_client.stats()["service"]["executed"] == 0


def test_parity_includes_catalog_datasets_and_scenario_refs(
    tmp_path, launch
):
    """Catalog names and parameterized scenario refs in one grid."""
    spec = tiny_spec(datasets=("acm",) + TINY_DATASETS, scale=0.3)
    grid = Session(spec, jobs=2).run()
    server = launch(jobs=2)
    envelopes = client_for(server).run_grid(spec, order="spec")
    assert [canonical_json(c) for c in _result_cells(envelopes)] == [
        canonical_json(cell.to_dict()) for cell in grid.cells
    ]


def test_session_and_service_agree_on_failures(launch):
    """Collected failures have the same typed shape either way."""
    from repro.faults import FaultPlan, FaultRule

    spec = tiny_spec()
    rule = FaultRule("platform.simulate", match="thrash")
    with FaultPlan([rule], seed=11):
        grid = Session(spec).run(on_error="collect")
    expected_failed = {c.key for c in grid.failures}
    assert expected_failed  # the schedule really hit

    server = launch(jobs=1)
    with FaultPlan([rule], seed=11):
        envelopes = client_for(server).run_grid(spec, order="spec")
    failed = {
        (c["platform"], c["model"], c["dataset"])
        for c in _result_cells(envelopes)
        if c.get("status") == "failed"
    }
    assert failed == expected_failed
    for cell_payload in _result_cells(envelopes):
        if cell_payload.get("status") == "failed":
            assert "InjectedFault" in cell_payload["failure"]["error_type"]
