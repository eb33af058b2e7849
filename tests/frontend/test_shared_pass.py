"""The GDR frontend pass is computed once per dataset and shared.

Every ``hihgnn+gdr`` cell on one :class:`DatasetArtifacts` reads the
same memoized restructure, keyed by the frontend's full parameter set.
These tests pin that sharing never changes a result: shared equals
fresh, distinct parameters get distinct passes, simulation never
mutates a shared pass, and the default grid restructures each distinct
semantic graph exactly once.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.sweeps import buffer_sensitivity
from repro.api import ExperimentSpec, Session
from repro.api.results import CellResult
from repro.frontend.config import GDRConfig
from repro.frontend.gdr import GDRFrontend, GDRHGNNSystem
from repro.frontend.platform import GDRHGNNPlatform
from repro.models.base import ModelConfig
from repro.platforms import (
    GridRunner,
    PlatformContext,
    register_platform,
    unregister_platform,
)
from repro.platforms.base import DatasetArtifacts

SMALL = ModelConfig(hidden_dim=32, num_heads=4, embed_dim=8)
MODELS = ("rgcn", "rgat", "simple_hgn")


def _payload(report) -> dict:
    return CellResult.from_report(report).to_dict()


def _count_restructures(monkeypatch) -> list:
    """Record the graph of every ``GDRFrontend.restructure`` call."""
    calls: list = []
    original = GDRFrontend.restructure

    def counted(self, graph):
        calls.append(graph)
        return original(self, graph)

    monkeypatch.setattr(GDRFrontend, "restructure", counted)
    return calls


def _snapshot(frontend_pass) -> list:
    """Deep copy of every array and counter a pass holds."""
    out = []
    for result, report in frontend_pass:
        nodes, stack = [], [result]
        while stack:
            node = stack.pop()
            nodes.append(
                (
                    node.matching.match_src.copy(),
                    node.matching.match_dst.copy(),
                    node.partition.src_in_mask.copy(),
                    node.partition.dst_in_mask.copy(),
                    [(s.src.copy(), s.dst.copy()) for s in node.subgraphs],
                    [schedule.copy() for schedule in node.dst_schedules],
                )
            )
            stack.extend(c for c in node.children if c is not None)
        out.append((nodes, dataclasses.asdict(report)))
    return out


def _assert_same(a, b) -> None:
    if isinstance(a, np.ndarray):
        assert np.array_equal(a, b)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


class TestMemoKey:
    def test_buffer_sweep_on_shared_artifacts_equals_fresh(self, tiny_imdb):
        """The sweep varies ``community_budget`` through the NA buffer
        size; a memo keyed on too few parameters would hand one point
        another point's restructure. (The default model's feature
        width keeps the budgets small enough to bind on this graph.)"""
        buffer_mbs = (2.0, 8.0, 14.52, 24.0)
        shared = DatasetArtifacts.build(tiny_imdb)
        swept = buffer_sensitivity(
            tiny_imdb, buffer_mbs=buffer_mbs, artifacts=shared
        )
        fresh = [
            buffer_sensitivity(tiny_imdb, buffer_mbs=(mb,))[0]
            for mb in buffer_mbs
        ]
        assert swept == fresh
        # Four capacities, four distinct community budgets.
        assert len(shared._passes) == len(buffer_mbs)

    def test_max_depth_gets_its_own_pass(self, tiny_imdb):
        artifacts = DatasetArtifacts.build(tiny_imdb)
        flat = artifacts.frontend_pass(GDRFrontend())
        deep = artifacts.frontend_pass(GDRFrontend(max_depth=1, min_edges=16))
        assert flat is not deep
        assert artifacts.frontend_pass(GDRFrontend()) is flat
        assert all(not result.children for result, _ in flat)
        assert any(result.children for result, _ in deep)

    def test_registered_variant_gets_its_own_pass(self, monkeypatch):
        @register_platform("hihgnn+gdr-one-port")
        class OnePortGDR(GDRHGNNPlatform):
            def __init__(self, context=None):
                context = context or PlatformContext()
                super().__init__(
                    dataclasses.replace(
                        context, frontend=GDRConfig(recouple_ports=1)
                    )
                )

        try:
            calls = _count_restructures(monkeypatch)
            runner = GridRunner(PlatformContext(model_config=SMALL), seed=3,
                                scale=0.05)
            base = runner.run_cell("hihgnn+gdr", "rgcn", "imdb")
            variant = runner.run_cell("hihgnn+gdr-one-port", "rgcn", "imdb")
            artifacts = runner.artifacts("imdb")
            graphs = len(artifacts.semantic_graphs)
            assert len(artifacts._passes) == 2
            assert len(calls) == 2 * graphs
            fresh = GridRunner(PlatformContext(model_config=SMALL), seed=3,
                               scale=0.05)
            alone = fresh.run_cell("hihgnn+gdr-one-port", "rgcn", "imdb")
            assert _payload(variant) == _payload(alone)
            # One Backbone Searcher port makes recoupling slower: the
            # variant really ran on its own configuration.
            assert variant.frontend_cycles > base.frontend_cycles
        finally:
            unregister_platform("hihgnn+gdr-one-port")


class TestSharing:
    def test_models_on_shared_artifacts_equal_fresh_runners(self):
        context = PlatformContext(model_config=SMALL)
        shared = GridRunner(context, seed=3, scale=0.05)
        artifacts = shared.artifacts("imdb")
        system = GDRHGNNSystem(
            context.accelerator, context.frontend, context.model_config
        )
        frontend_pass = artifacts.frontend_pass(system.frontend)
        before = _snapshot(frontend_pass)
        for model in MODELS:
            report = shared.run_cell("hihgnn+gdr", model, "imdb")
            alone = GridRunner(context, seed=3, scale=0.05).run_cell(
                "hihgnn+gdr", model, "imdb"
            )
            assert _payload(report) == _payload(alone), model
        assert artifacts.frontend_pass(system.frontend) is frontend_pass
        _assert_same(_snapshot(frontend_pass), before)

    def test_default_grid_restructures_each_graph_once(self, monkeypatch):
        calls = _count_restructures(monkeypatch)
        spec = ExperimentSpec(scale=0.3)
        assert spec.grid_size == 36
        grid = Session(spec).run()
        assert len(grid) == 36
        assert len(calls) == 20
        assert len({id(graph) for graph in calls}) == 20

    def test_system_without_a_pass_still_restructures(
        self, tiny_imdb, monkeypatch
    ):
        calls = _count_restructures(monkeypatch)
        report = GDRHGNNSystem(model_config=SMALL).run(tiny_imdb, "rgcn")
        assert len(calls) == len(tiny_imdb.relations)
        assert report.frontend_cycles > 0


@pytest.mark.parametrize("naive", [False, True])
def test_pass_matches_direct_restructure(tiny_imdb, naive):
    frontend = GDRFrontend(naive=naive)
    artifacts = DatasetArtifacts.build(tiny_imdb)
    for sg, (result, report) in zip(
        artifacts.semantic_graphs, artifacts.frontend_pass(frontend)
    ):
        direct_result, direct_report = frontend.restructure(sg)
        assert report == direct_report
        for (a, a_sched), (b, b_sched) in zip(
            result.leaves(), direct_result.leaves()
        ):
            assert np.array_equal(a.src, b.src)
            assert np.array_equal(a.dst, b.dst)
            assert np.array_equal(a_sched, b_sched)
