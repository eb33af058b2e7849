"""Each relation's topology is stored once per dataset.

A reverse relation holds its forward's edge arrays, swapped; the SGB
stage adopts the graph's arrays without copying them; and a reverse
semantic graph resolves its CSR, CSC and active-vertex sets through its
twin, so a transpose pair sorts each adjacency once. Every shared array
is read-only, so sharing cannot let one holder's write change another's
topology.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSR
from repro.graph.datasets import DATASET_SPECS
from repro.graph.hetero import HeteroGraph, Relation
from repro.graph.semantic import SemanticGraph, build_semantic_graphs
from repro.platforms.base import DatasetArtifacts
from repro.scenarios import scenario_names
from repro.scenarios.workloads import load_workload
from tests.strategies import scenario_refs

#: Every catalog dataset and one small instance of every scenario family,
#: as ``(reference, scale)``.
WORKLOADS = (
    ("acm", 0.1),
    ("imdb", 0.1),
    ("dblp", 0.1),
    ("scale:base=acm,factor=0.05", 1.0),
    ("skew:num_src=96,num_dst=64,num_edges=512", 1.0),
    ("relations:num_relations=3,vertices_per_type=48,edges_per_relation=96", 1.0),
    ("community:num_src=64,num_dst=64,num_edges=256", 1.0),
    ("thrash:working_set=48,num_dst=6", 1.0),
    ("uniform:num_dst=32,degree=2", 1.0),
    ("star:num_leaves=64,num_hubs=2", 1.0),
)

#: Reverse names the catalog specs set explicitly (ACM's ``-cites``).
_REVERSE_NAMES = {
    spec.name: spec.reverse_name
    for dataset in DATASET_SPECS.values()
    for spec in dataset.relations
    if spec.reverse_name
}


def _load(ref: str, scale: float) -> HeteroGraph:
    return load_workload(ref, seed=1, scale=scale)


def _pairs(graph: HeteroGraph) -> list[tuple[Relation, Relation]]:
    """``(forward, reverse)`` relations, by the generators' naming."""
    relations = set(graph.relations)
    pairs = []
    for rel in graph.relations:
        rev = rel.reversed(_REVERSE_NAMES.get(rel.name))
        if rev in relations:
            pairs.append((rel, rev))
    return pairs


def _count_builds(monkeypatch) -> list:
    """Record the ``(num_rows, num_cols)`` of every ``CSR.from_coo`` call."""
    calls: list = []
    original = CSR.from_coo.__func__

    def counted(cls, rows, cols, num_rows, num_cols, **kwargs):
        calls.append((num_rows, num_cols))
        return original(cls, rows, cols, num_rows, num_cols, **kwargs)

    monkeypatch.setattr(CSR, "from_coo", classmethod(counted))
    return calls


def _assert_fresh(sg) -> None:
    """``sg``'s adjacency and active sets equal an independent build."""
    src, dst = sg.src.copy(), sg.dst.copy()
    for got, want in (
        (sg.csr, CSR.from_coo(src, dst, sg.num_src, sg.num_dst)),
        (sg.csc, CSR.from_coo(dst, src, sg.num_dst, sg.num_src)),
    ):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.num_cols == want.num_cols
    assert np.array_equal(sg.active_src(), np.unique(src))
    assert np.array_equal(sg.active_dst(), np.unique(dst))


def test_workloads_cover_every_family():
    families = {ref.partition(":")[0] for ref, _ in WORKLOADS}
    assert set(scenario_names()) | set(DATASET_SPECS) <= families


@pytest.mark.parametrize("ref,scale", WORKLOADS)
class TestEveryWorkload:
    def test_reverse_holds_the_forward_arrays_swapped(self, ref, scale):
        graph = _load(ref, scale)
        pairs = _pairs(graph)
        # uniform is single-direction by design; every other workload
        # pairs each relation with its reverse.
        expected = 0 if ref.startswith("uniform") else graph.num_edge_types
        assert 2 * len(pairs) == expected
        for fwd, rev in pairs:
            src, dst = graph.edges_of(fwd)
            rev_src, rev_dst = graph.edges_of(rev)
            assert rev_src is dst and rev_dst is src

    def test_semantic_graphs_adopt_the_graph_arrays(self, ref, scale):
        graph = _load(ref, scale)
        for sg in build_semantic_graphs(graph):
            src, dst = graph.edges_of(sg.relation)
            assert sg.src is src and sg.dst is dst

    def test_reverse_resolves_through_its_twin(self, ref, scale):
        graph = _load(ref, scale)
        artifacts = DatasetArtifacts.build(graph)
        by_relation = {sg.relation: sg for sg in artifacts.semantic_graphs}
        twins = {id(sg._twin) for sg in artifacts.semantic_graphs} - {id(None)}
        assert len(twins) == len(_pairs(graph))
        for fwd_rel, rev_rel in _pairs(graph):
            fwd, rev = by_relation[fwd_rel], by_relation[rev_rel]
            assert rev._twin is fwd
            assert rev.csr is fwd.csc and rev.csc is fwd.csr
            assert rev.active_src() is fwd.active_dst()
            assert rev.active_dst() is fwd.active_src()
        for sg in artifacts.semantic_graphs:
            _assert_fresh(sg)

    def test_in_place_writes_raise(self, ref, scale):
        graph = _load(ref, scale)
        sg = DatasetArtifacts.build(graph).semantic_graphs[-1]
        arrays = [
            *graph.edges_of(sg.relation),
            sg.src,
            sg.dst,
            sg.csr.indptr,
            sg.csr.indices,
            sg.csc.indptr,
            sg.csc.indices,
            sg.active_src(),
            sg.active_dst(),
        ]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
            with pytest.raises(ValueError, match="read-only"):
                np.add(array, 0, out=array)
            with pytest.raises(ValueError, match="read-only"):
                array.sort()


@settings(max_examples=30, deadline=None)
@given(
    ref=scenario_refs(),
    seed=st.integers(0, 50),
    reverse_first=st.booleans(),
)
def test_shared_views_equal_independent_builds(ref, seed, reverse_first):
    """Whichever side of a pair is warmed first, both equal fresh builds."""
    graphs = build_semantic_graphs(load_workload(ref, seed=seed))
    for sg in reversed(graphs) if reverse_first else graphs:
        sg.csr, sg.csc, sg.active_src(), sg.active_dst()
    for sg in graphs:
        _assert_fresh(sg)
        if sg._twin is not None:
            assert sg.csr is sg._twin.csc and sg.csc is sg._twin.csr


@pytest.mark.parametrize("reverse_first", [False, True])
def test_one_sort_per_adjacency_whichever_side_asks(monkeypatch, reverse_first):
    graphs = build_semantic_graphs(_load("imdb", 0.1))
    rev = next(sg for sg in graphs if sg._twin is not None)
    fwd = rev._twin
    builds = _count_builds(monkeypatch)
    first, second = (rev, fwd) if reverse_first else (fwd, rev)
    first.csr, first.csc
    assert len(builds) == 2
    assert second.csr is first.csc and second.csc is first.csr
    assert len(builds) == 2


def test_artifacts_build_sorts_each_pair_once(monkeypatch):
    """acm has 4 transpose pairs, so 8 semantic graphs: one CSR and one
    CSC per pair (8 sorts), where sorting both views of every graph
    took 16."""
    builds = _count_builds(monkeypatch)
    artifacts = DatasetArtifacts.build(_load("acm", 1.0))
    assert len(artifacts.semantic_graphs) == 8
    assert len(builds) == 8


def test_hetero_graph_adopts_caller_arrays_read_only():
    src = np.array([0, 1, 1], dtype=np.int64)
    dst = np.array([1, 0, 2], dtype=np.int64)
    relation = Relation("a", "r", "b")
    graph = HeteroGraph({"a": 2, "b": 3}, {}, {relation: (src, dst)})
    assert graph.edges_of(relation)[0] is src
    with pytest.raises(ValueError, match="read-only"):
        src[0] = 1
    full = graph.with_reverse_relations()
    rev_src, rev_dst = full.edges_of(relation.reversed())
    assert rev_src is dst and rev_dst is src


def test_a_twin_must_hold_the_swapped_arrays(small_acm):
    sg = build_semantic_graphs(small_acm)[0]
    with pytest.raises(ValueError, match="twin"):
        SemanticGraph(
            relation=sg.relation.reversed(),
            num_src=sg.num_dst,
            num_dst=sg.num_src,
            src=sg.dst.copy(),
            dst=sg.src,
            _twin=sg,
        )


def test_swapped_arrays_over_other_vertex_counts_are_no_twins():
    """Array identity alone is not enough: a relation over differently
    sized vertex types that reuses another's arrays, swapped, gets its
    own adjacency."""
    src = np.array([0, 1], dtype=np.int64)
    dst = np.array([2, 0], dtype=np.int64)
    forward, other = Relation("a", "r", "b"), Relation("c", "s", "a")
    graph = HeteroGraph(
        {"a": 2, "b": 3, "c": 4}, {}, {forward: (src, dst), other: (dst, src)}
    )
    fwd, rev = build_semantic_graphs(graph)
    assert rev._twin is None
    assert rev.csr.num_rows == 4 and fwd.csc.num_rows == 3
    _assert_fresh(rev)
