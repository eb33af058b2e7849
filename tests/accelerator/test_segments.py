"""HiHGNN replays each NA lane segment once, from composed stack distances.

Between two flushes a lane's NA buffer is one LRU over the concatenated
leaf traces of that lane. The simulator composes each segment's stack
distances from its leaves' replay artifacts and memoizes multi-leaf
segments in the dataset's derived memo. These tests pin that the
composition equals a from-scratch build on every segment of the
default grid, that the hits equal the chained element-at-a-time
buffer at several capacities, and that each distinct segment that
overflows its buffer is composed once per dataset.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.accelerator.hihgnn as hihgnn
from repro.accelerator.hihgnn import HiHGNNSimulator, _replay_segments
from repro.api import ExperimentSpec, Session
from repro.api.results import CellResult
from repro.frontend.gdr import GDRHGNNSystem
from repro.graph.datasets import load_dataset
from repro.memory.replay import TraceArtifact, compose_distances
from repro.models.base import ModelConfig
from repro.platforms.base import DatasetArtifacts

NA_PLATFORMS = ("hihgnn", "hihgnn+gdr")


def _payload(report) -> dict:
    return CellResult.from_report(report).to_dict()


def _concat(segment) -> np.ndarray:
    return np.concatenate([leaf.replay.trace for leaf in segment])


@pytest.fixture(scope="module")
def grid_segments():
    """Every distinct lane segment the scale-0.3 NA grid replays."""
    recorded: dict[tuple, list] = {}
    original = hihgnn._replay_segments

    def record(segments, *args):
        for segment in segments:
            key = tuple(id(leaf.replay) for leaf in segment)
            recorded.setdefault(key, segment)
        return original(segments, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hihgnn, "_replay_segments", record)
        spec = ExperimentSpec(scale=0.3, platforms=NA_PLATFORMS)
        assert len(Session(spec).run()) == spec.grid_size
    return list(recorded.values())


class TestComposition:
    def test_every_grid_segment_matches_a_fresh_build(self, grid_segments):
        # 18 runs of 6 segments each; 40 distinct, 19 with several leaves.
        assert len(grid_segments) == 40
        assert sum(len(segment) > 1 for segment in grid_segments) == 19
        for segment in grid_segments:
            got = compose_distances([leaf.replay for leaf in segment])
            want = TraceArtifact(_concat(segment)).distances
            assert np.array_equal(got, want), [leaf.key for leaf in segment]

    def test_single_part_reuses_its_artifact(self, small_dblp):
        artifact = DatasetArtifacts.build(small_dblp).semantic_graphs[0].na_replay()
        assert compose_distances([artifact]) is artifact.distances


class TestChainedReference:
    def test_hits_equal_chained_naive_buffer(self, grid_segments):
        """Per leaf, the composed replay misses exactly the ids the
        element-at-a-time buffer misses when the leaves stream through
        it back to back, at capacities around the segment's footprint."""
        for segment in grid_segments:
            distinct = len(np.unique(_concat(segment)))
            for capacity in sorted({1, 7, 1858, max(1, distinct - 1), distinct}):
                fast = _replay_segments([segment], capacity, 1, None, False)
                fast_missed = [leaf.missed for leaf in segment]
                slow = _replay_segments([segment], capacity, 1, None, True)
                assert np.array_equal(fast, slow)
                for leaf, missed in zip(segment, fast_missed):
                    assert np.array_equal(missed, leaf.missed), (
                        capacity, leaf.key
                    )
                if capacity == distinct:
                    # Only compulsory misses once the footprint fits.
                    assert sum(len(m) for m in fast_missed) == distinct

    @pytest.mark.parametrize("hidden_dim", [512, 8192])
    @pytest.mark.parametrize("platform", NA_PLATFORMS)
    def test_naive_run_equals_composed_run(self, platform, hidden_dim, small_dblp):
        """At the default width every segment fits its buffer; at 16x
        the width most overflow and replay from composed distances."""
        artifacts = DatasetArtifacts.build(small_dblp)
        model_config = ModelConfig(hidden_dim=hidden_dim)
        restructured = None
        if platform == "hihgnn+gdr":
            system = GDRHGNNSystem(model_config=model_config)
            frontend_pass = artifacts.frontend_pass(system.frontend)
            restructured = {
                str(sg.relation): result
                for sg, (result, _) in zip(artifacts.semantic_graphs, frontend_pass)
            }

        def run(naive):
            return HiHGNNSimulator(model_config=model_config).run(
                small_dblp, "rgat", semantic_graphs=artifacts.semantic_graphs,
                restructured=restructured, naive=naive,
            )

        assert _payload(run(True)) == _payload(run(False))

    def test_leaf_hits_plus_misses_equal_accesses(self, small_dblp, monkeypatch):
        charged: list[tuple] = []
        original = hihgnn.NAStageEngine.charge

        def record(self, graph, num_scheduled, accesses, missed_ids):
            report = original(self, graph, num_scheduled, accesses, missed_ids)
            charged.append((graph.num_edges, accesses, report))
            return report

        monkeypatch.setattr(hihgnn.NAStageEngine, "charge", record)
        GDRHGNNSystem().run(small_dblp, "rgcn")
        assert charged
        for edges, accesses, report in charged:
            assert accesses == edges
            assert report.buffer_hits + report.buffer_misses == accesses


class TestSegmentSharing:
    def test_grid_composes_each_segment_once(self, monkeypatch):
        """4x wider features shrink the NA buffers to 464 entries, so
        most multi-leaf segments of the scale-0.3 grid overflow them and
        are replayed from composed distances; every model shares them."""
        composed: list[tuple] = []
        original = hihgnn.compose_distances

        def counted(parts):
            if len(parts) > 1:
                composed.append(tuple(id(p) for p in parts))
            return original(parts)

        lookups: list[tuple] = []
        derived = DatasetArtifacts.derived

        def counted_derived(self, key, compute):
            if key[0] == "na-segment":
                lookups.append(key)
            return derived(self, key, compute)

        monkeypatch.setattr(hihgnn, "compose_distances", counted)
        monkeypatch.setattr(DatasetArtifacts, "derived", counted_derived)
        spec = ExperimentSpec(scale=0.3, model_config=ModelConfig(hidden_dim=2048))
        session = Session(spec)
        assert len(session.run()) == spec.grid_size
        keys = [
            key
            for name in spec.datasets
            for key in session.runner.artifacts(name)._passes
            if key[0] == "na-segment"
        ]
        assert len(composed) == len(set(composed)) == len(keys) == 15
        assert len(lookups) == 3 * len(keys)

    def test_models_share_segments_with_identical_reports(self):
        """Reports on shared artifacts equal memo-free runs, model by model."""
        graph = load_dataset("acm", seed=1, scale=0.3)
        shared = DatasetArtifacts.build(graph)
        system = GDRHGNNSystem(model_config=ModelConfig(hidden_dim=2048))
        frontend_pass = shared.frontend_pass(system.frontend)
        for model in ("rgcn", "rgat", "simple_hgn"):
            memoized = system.run(
                graph, model, semantic_graphs=shared.semantic_graphs,
                frontend_pass=frontend_pass, derived=shared.derived,
            )
            alone = system.run(
                graph, model, semantic_graphs=shared.semantic_graphs,
                frontend_pass=frontend_pass,
            )
            assert _payload(memoized) == _payload(alone), model
        assert any(key[0] == "na-segment" for key in shared._passes)
