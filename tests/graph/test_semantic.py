"""Unit tests for semantic graphs and the SGB stage."""

import numpy as np
import pytest

from repro.graph.hetero import Relation
from repro.graph.semantic import SemanticGraph, build_semantic_graphs, compose_metapath


class TestSemanticGraph:
    def test_basic_views(self, make_semantic):
        sg = make_semantic(3, 3, [(0, 1), (0, 2), (1, 0)])
        assert sg.num_edges == 3
        assert sg.num_vertices == 6
        assert sg.neighbors_out(0).tolist() == [1, 2]
        assert sg.neighbors_in(0).tolist() == [1]

    def test_degrees(self, make_semantic):
        sg = make_semantic(3, 3, [(0, 1), (0, 2), (1, 1)])
        assert sg.src_degrees().tolist() == [2, 1, 0]
        assert sg.dst_degrees().tolist() == [0, 2, 1]

    def test_edge_set(self, make_semantic):
        sg = make_semantic(2, 2, [(0, 0), (1, 1)])
        assert sg.edge_set() == {(0, 0), (1, 1)}

    def test_active_vertices(self, make_semantic):
        sg = make_semantic(4, 4, [(1, 2), (3, 2)])
        assert sg.active_src().tolist() == [1, 3]
        assert sg.active_dst().tolist() == [2]

    def test_mismatched_edges_rejected(self):
        with pytest.raises(ValueError, match="match in length"):
            SemanticGraph(
                Relation("a", "r", "b"), 2, 2,
                src=np.array([0, 1]), dst=np.array([0]),
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SemanticGraph(
                Relation("a", "r", "b"), 2, 2,
                src=np.array([2]), dst=np.array([0]),
            )

    def test_global_ids_use_bases(self, make_semantic):
        sg = make_semantic(3, 2, [(0, 0)])
        sg.src_global_base = 10
        sg.dst_global_base = 20
        assert sg.src_global_ids().tolist() == [10, 11, 12]
        assert sg.dst_global_ids(np.array([1])).tolist() == [21]

    def test_edge_subgraph_preserves_ids(self, make_semantic):
        sg = make_semantic(4, 4, [(0, 1), (2, 3), (3, 0)])
        sub = sg.edge_subgraph(np.array([True, False, True]))
        assert sub.num_src == 4 and sub.num_dst == 4
        assert sub.edge_set() == {(0, 1), (3, 0)}

    def test_edge_subgraph_mask_length_checked(self, make_semantic):
        sg = make_semantic(2, 2, [(0, 0)])
        with pytest.raises(ValueError, match="one entry per edge"):
            sg.edge_subgraph(np.array([True, False]))

    def test_full_mask_hands_caches_over(self, make_semantic):
        sg = make_semantic(3, 3, [(0, 1), (0, 2), (2, 0)])
        sg.csr, sg.csc, sg.active_src(), sg.active_dst()
        sub = sg.edge_subgraph(np.ones(3, dtype=bool))
        assert sub is not sg
        assert sub.src is sg.src and sub.dst is sg.dst
        assert sub._csr is sg._csr and sub._csc is sg._csc
        assert sub._active_src is sg._active_src
        assert sub._active_dst is sg._active_dst
        sub._csr = sub._csc = None
        assert sg._csr is not None and sg._csc is not None
        partial = sg.edge_subgraph(np.array([True, True, False]))
        assert partial._csr is None and partial._csc is None
        assert partial._active_src is None and partial._active_dst is None
        assert not partial.src.flags.writeable

    def test_reversed_swaps_roles(self, make_semantic):
        sg = make_semantic(3, 2, [(0, 1), (2, 0)])
        rev = sg.reversed()
        assert rev.num_src == 2 and rev.num_dst == 3
        assert rev.edge_set() == {(1, 0), (0, 2)}

    @pytest.mark.parametrize("warm", [False, True])
    def test_reversed_views_equal_a_fresh_build(self, small_acm, warm):
        sg = max(build_semantic_graphs(small_acm), key=lambda g: g.num_edges)
        if warm:
            sg.csr, sg.csc, sg.active_src(), sg.active_dst()
        rev = sg.reversed()
        fresh = SemanticGraph(
            rev.relation, rev.num_src, rev.num_dst,
            src=rev.src.copy(), dst=rev.dst.copy(),
        )
        assert rev.src is sg.dst and rev.dst is sg.src
        assert (rev.csr is sg.csc) and (rev.csc is sg.csr)
        assert rev.reversed().csr is sg.csr
        full = rev.edge_subgraph(np.ones(rev.num_edges, dtype=bool))
        assert full.csr is sg.csc
        for view in ("csr", "csc"):
            got, want = getattr(rev, view), getattr(fresh, view)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert got.num_cols == want.num_cols
        assert np.array_equal(rev.active_src(), fresh.active_src())
        assert np.array_equal(rev.active_dst(), fresh.active_dst())


class TestSGB:
    def test_one_graph_per_relation(self, tiny_imdb):
        sgs = build_semantic_graphs(tiny_imdb)
        assert len(sgs) == len(tiny_imdb.relations)
        for sg, rel in zip(sgs, tiny_imdb.relations):
            assert sg.relation == rel
            assert sg.num_edges == tiny_imdb.num_edges(rel)

    def test_bases_match_type_offsets(self, tiny_imdb):
        for sg in build_semantic_graphs(tiny_imdb):
            assert sg.src_global_base == tiny_imdb.type_offset(sg.relation.src_type)
            assert sg.dst_global_base == tiny_imdb.type_offset(sg.relation.dst_type)

    def test_semantic_graphs_are_bipartite_views(self, tiny_imdb):
        for sg in build_semantic_graphs(tiny_imdb):
            assert sg.num_src == tiny_imdb.num_vertices(sg.relation.src_type)
            assert sg.num_dst == tiny_imdb.num_vertices(sg.relation.dst_type)


class TestMetapath:
    def test_compose_simple(self, make_semantic):
        # a0 -> b0 -> c1 and a0 -> b1 -> c0
        first = make_semantic(1, 2, [(0, 0), (0, 1)],
                              relation=Relation("a", "r1", "b"))
        second = make_semantic(2, 2, [(0, 1), (1, 0)],
                               relation=Relation("b", "r2", "c"))
        composed = compose_metapath(first, second)
        assert composed.relation.src_type == "a"
        assert composed.relation.dst_type == "c"
        assert composed.edge_set() == {(0, 0), (0, 1)}

    def test_compose_collapses_parallel_paths(self, make_semantic):
        first = make_semantic(1, 2, [(0, 0), (0, 1)],
                              relation=Relation("a", "r1", "b"))
        second = make_semantic(2, 1, [(0, 0), (1, 0)],
                               relation=Relation("b", "r2", "c"))
        composed = compose_metapath(first, second)
        assert composed.num_edges == 1  # two paths, one metapath edge

    def test_compose_type_mismatch_rejected(self, make_semantic):
        first = make_semantic(1, 1, [(0, 0)], relation=Relation("a", "r", "b"))
        wrong = make_semantic(1, 1, [(0, 0)], relation=Relation("x", "r", "c"))
        with pytest.raises(ValueError, match="do not match"):
            compose_metapath(first, wrong)

    def test_compose_names_concatenate(self, make_semantic):
        first = make_semantic(1, 1, [(0, 0)], relation=Relation("a", "writes", "p"))
        second = make_semantic(1, 1, [(0, 0)], relation=Relation("p", "in", "v"))
        assert compose_metapath(first, second).relation.name == "writes.in"

    def test_compose_empty_intermediate(self, make_semantic):
        first = make_semantic(2, 2, [], relation=Relation("a", "r1", "b"))
        second = make_semantic(2, 2, [(0, 0)], relation=Relation("b", "r2", "c"))
        assert compose_metapath(first, second).num_edges == 0
