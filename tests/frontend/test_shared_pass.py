"""The GDR frontend pass is computed once per dataset and shared.

Every ``hihgnn+gdr`` cell on one :class:`DatasetArtifacts` reads the
same memoized restructure, keyed by the frontend's full parameter set.
These tests pin that sharing never changes a result: shared equals
fresh, distinct parameters get distinct passes, simulation never
mutates a shared pass, and the default grid restructures each distinct
semantic graph exactly once. Within a pass, a relation and its reverse
share one FIFO matching search; ``TestTwinSharing`` pins that the
twins still get independent, memo-free-equal results.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.analysis.sweeps import buffer_sensitivity
from repro.api import ExperimentSpec, Session
from repro.api.results import CellResult
import repro.frontend.decoupler as decoupler_module
from repro.frontend.config import GDRConfig
from repro.frontend.gdr import GDRFrontend, GDRHGNNSystem
from repro.graph.csr import CSR
from repro.graph.datasets import load_dataset
from repro.graph.hetero import Relation
from repro.graph.semantic import SemanticGraph, build_semantic_graphs
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


def _count_searches(monkeypatch) -> list:
    """Record the graph of every matching-engine call the Decoupler makes."""
    calls: list = []
    original = decoupler_module.maximum_matching_vec

    def counted(graph, **kwargs):
        calls.append(graph)
        return original(graph, **kwargs)

    monkeypatch.setattr(decoupler_module, "maximum_matching_vec", counted)
    return calls


def _count_builds(monkeypatch) -> Counter:
    """Count ``CSR.from_coo`` builds by ``(rows, cols, edges)`` shape."""
    builds: Counter = Counter()
    original = CSR.from_coo.__func__

    def counted(cls, rows, cols, num_rows, num_cols, **kwargs):
        builds[num_rows, num_cols, len(rows)] += 1
        return original(cls, rows, cols, num_rows, num_cols, **kwargs)

    monkeypatch.setattr(CSR, "from_coo", classmethod(counted))
    return builds


def _frontend_passes(artifacts: DatasetArtifacts) -> list:
    """The memo's frontend passes (it also holds NA lane segments)."""
    return [key for key in artifacts._passes if key[0] == "frontend"]


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
        assert len(_frontend_passes(shared)) == len(buffer_mbs)

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
            assert len(_frontend_passes(artifacts)) == 2
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


def _grid_passes(scale=0.3):
    """Every default-grid dataset with its semantic graphs and pass."""
    spec = ExperimentSpec(scale=scale)
    frontend = GDRHGNNSystem().frontend
    for name in spec.datasets:
        artifacts = DatasetArtifacts.build(
            load_dataset(name, seed=spec.seed, scale=scale)
        )
        yield name, artifacts.semantic_graphs, frontend.run_pass(
            artifacts.semantic_graphs
        )


def _relation_index(graphs, name: str) -> int:
    return [str(sg.relation) for sg in graphs].index(name)


class TestTwinSharing:
    def test_default_grid_searches_once_per_transpose_pair(self, monkeypatch):
        searches = _count_searches(monkeypatch)
        calls = _count_restructures(monkeypatch)
        spec = ExperimentSpec(scale=0.3)
        assert len(Session(spec).run()) == spec.grid_size
        # 20 graphs: 10 transpose pairs, of which the square self-relation
        # pair (paper-cites and its reverse) has two distinct searches.
        assert len(calls) == 20
        assert len(searches) == 11

    def test_twin_pair_matches_without_comparing_arrays(self, monkeypatch):
        """On a dataset's semantic graphs, every transpose pair's oriented
        CSRs are one object, so the reverse reuses the matching without
        an element-by-element comparison; only the square ``cites``
        pair, whose oriented CSRs differ, is compared."""
        compared: list = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def array_equal(self, a, b):
                compared.append((a, b))
                return np.array_equal(a, b)

        monkeypatch.setattr(decoupler_module, "np", CountingNumpy())
        searches = _count_searches(monkeypatch)
        for name in ("imdb", "dblp", "acm"):
            graphs = build_semantic_graphs(load_dataset(name, seed=1, scale=0.1))
            GDRFrontend().run_pass(graphs)
            if name != "acm":
                assert compared == [], name
        assert len(searches) == 3 + 3 + 5
        cites = graphs[_relation_index(graphs, "paper-cites->paper")]
        assert compared and all(
            a is cites.csr.indptr or b is cites.csr.indptr for a, b in compared
        )

    def test_pass_equals_memo_free_restructure(self):
        fresh = GDRFrontend(
            community_budget=GDRHGNNSystem().frontend.recoupler.community_budget
        )
        for name, graphs, frontend_pass in _grid_passes():
            for sg, (result, report) in zip(graphs, frontend_pass):
                alone, alone_report = fresh.restructure(sg)
                assert report == alone_report, (name, sg.relation)
                a, b = result.matching, alone.matching
                assert np.array_equal(a.match_src, b.match_src)
                assert np.array_equal(a.match_dst, b.match_dst)
                assert a.counters == b.counters
                assert np.array_equal(
                    result.partition.src_in_mask, alone.partition.src_in_mask
                )
                assert np.array_equal(
                    result.partition.dst_in_mask, alone.partition.dst_in_mask
                )
                for (x, x_sched), (y, y_sched) in zip(
                    result.leaves(), alone.leaves()
                ):
                    assert np.array_equal(x.src, y.src)
                    assert np.array_equal(x.dst, y.dst)
                    assert np.array_equal(x_sched, y_sched)

    def test_twins_own_their_arrays(self):
        name, graphs, frontend_pass = next(_grid_passes())
        one = frontend_pass[_relation_index(graphs, "author-writes->paper")]
        two = frontend_pass[_relation_index(graphs, "paper-rev_writes->author")]
        a, b = one[0].matching, two[0].matching
        assert np.array_equal(a.match_src, b.match_dst)
        assert a.counters == b.counters and a.counters is not b.counters
        before = (b.match_src.copy(), b.match_dst.copy())
        a.match_src[:] = -7
        a.match_dst[:] = -7
        a.counters.fifo_pops += 1
        assert np.array_equal(b.match_src, before[0])
        assert np.array_equal(b.match_dst, before[1])
        assert a.counters != b.counters

    def test_self_relation_pair_is_searched_twice(self, monkeypatch):
        searches = _count_searches(monkeypatch)
        graphs = DatasetArtifacts.build(
            load_dataset("acm", seed=1, scale=0.3)
        ).semantic_graphs
        cites = [
            sg for sg in graphs if sg.relation.src_type == sg.relation.dst_type
        ]
        assert [str(sg.relation) for sg in cites] == [
            "paper-cites->paper",
            "paper--cites->paper",
        ]
        GDRFrontend().run_pass(cites)
        assert [id(sg) for sg in searches] == [id(sg) for sg in cites]

    def test_unwarmed_pair_builds_each_adjacency_at_most_twice(
        self, monkeypatch
    ):
        """A reverse relation resolves its adjacency through its twin,
        so on graphs ``DatasetArtifacts.build`` has not warmed each of
        a transpose pair's two adjacencies is built once, whichever side
        asks first; and the Recoupler reads destination degrees without
        building a CSC."""
        builds = _count_builds(monkeypatch)
        graphs = build_semantic_graphs(load_dataset("dblp", seed=1, scale=1.0))
        assert not builds
        GDRFrontend().run_pass(graphs)
        term = graphs[_relation_index(graphs, "term-appears->paper")]
        term_major = (term.num_src, term.num_dst, term.num_edges)
        paper_major = (term.num_dst, term.num_src, term.num_edges)
        assert (builds[term_major], builds[paper_major]) == (1, 1)

    @pytest.mark.parametrize("scale", [0.1, 0.3])
    def test_recoupler_counts_degrees_without_a_csc(self, monkeypatch, scale):
        """The Recoupler's destination degrees come from the edge list,
        so term/paper's paper-major adjacency is built only by the
        reverse relation's backbone search and term/paper's community
        schedule."""
        builds = _count_builds(monkeypatch)
        graphs = build_semantic_graphs(
            load_dataset("dblp", seed=1, scale=scale)
        )
        GDRFrontend().run_pass(graphs)
        term = graphs[_relation_index(graphs, "term-appears->paper")]
        assert builds[term.num_dst, term.num_src, term.num_edges] == 2

    @pytest.mark.parametrize("scale", [0.1, 0.3])
    def test_full_backbone_subgraph_reuses_the_adjacency(
        self, monkeypatch, scale
    ):
        """At these scales one backbone subgraph of term/paper keeps
        every edge; it takes over the term-major adjacency that the
        matching of the pair built once, instead of building it again."""
        builds = _count_builds(monkeypatch)
        graphs = build_semantic_graphs(
            load_dataset("dblp", seed=1, scale=scale)
        )
        GDRFrontend().run_pass(graphs)
        term = graphs[_relation_index(graphs, "term-appears->paper")]
        assert builds[term.num_src, term.num_dst, term.num_edges] == 1

    def test_key_compares_indices_not_only_degrees(self, monkeypatch):
        """Equal shape and ``indptr`` but different neighbors: the
        second graph is searched, and each matches its own edges."""
        searches = _count_searches(monkeypatch)
        rel = Relation("a", "r", "b")
        first = SemanticGraph(rel, 2, 3, np.array([0, 1]), np.array([0, 1]))
        second = SemanticGraph(rel, 2, 3, np.array([0, 1]), np.array([1, 2]))
        twin = first.reversed()
        frontend_pass = GDRFrontend().run_pass([first, second, twin])
        assert [id(sg) for sg in searches] == [id(first), id(second)]
        for sg, (result, _) in zip((first, second, twin), frontend_pass):
            assert result.matching.is_valid_matching(sg)
            assert result.matching.size == 2
