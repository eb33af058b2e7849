"""Differential suite: vectorized frontend engines vs their naive references.

Locks in the tentpole guarantee -- the batched engines reproduce the
scalar formulations *exactly*: same matching arrays, bit-identical
``MatchingCounters``, identical hash-conflict counts, identical
backbone covers (hence community schedules), and therefore byte-identical
Decoupler/Recoupler/Frontend reports, across the Table 2 catalog, the
scenario stress families and recursive ``max_depth > 0`` runs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.config import GDRConfig
from repro.frontend.gdr import GDRFrontend
from repro.frontend.hashtable import HashTable, count_fifo_conflicts
from repro.graph.datasets import load_dataset
from repro.graph.hetero import Relation
from repro.graph.semantic import SemanticGraph, build_semantic_graphs
from repro.restructure.backbone import select_backbone
from repro.restructure.hopcroft_karp import hopcroft_karp
from repro.restructure.matching import maximum_matching_fifo
from repro.restructure.matching_vec import maximum_matching_vec
from repro.restructure.recouple import _community_schedule, recouple
from repro.scenarios import build_scenario
from tests.memory.test_differential_scenarios import (
    SCENARIO_REFS as REPLAY_REFS,
)
from tests.restructure.test_recouple import assert_walk_invariants

#: Scenario references exercising the adversarial shapes: complete
#: bipartite cyclic scans, degenerate single-hub skew, no-reuse
#: uniform, and a hot configuration-model sweep point.
STRESS_REFS = (
    "thrash:working_set=96,num_dst=24",
    "star:num_leaves=512",
    "star:num_leaves=300,num_hubs=7",
    "uniform:num_dst=128,degree=3",
    "skew:num_src=256,num_dst=128,num_edges=2048,exponent=1.6",
    "community:num_src=192,num_dst=192,num_edges=1500,mixing=0.35",
)


def _scenario_graphs(ref):
    return build_semantic_graphs(build_scenario(ref, seed=3))


def _catalog_graphs(name):
    return build_semantic_graphs(load_dataset(name, scale=0.4))


def assert_matching_identical(scalar, vectorized):
    assert np.array_equal(scalar.match_src, vectorized.match_src)
    assert np.array_equal(scalar.match_dst, vectorized.match_dst)
    assert dataclasses.asdict(scalar.counters) == dataclasses.asdict(
        vectorized.counters
    )


class TestMatchingDifferential:
    @pytest.mark.parametrize("dataset", ["acm", "imdb", "dblp"])
    def test_catalog_counters_bit_identical(self, dataset):
        for sg in _catalog_graphs(dataset):
            assert_matching_identical(
                maximum_matching_fifo(sg), maximum_matching_vec(sg)
            )

    @pytest.mark.parametrize("ref", STRESS_REFS)
    def test_scenario_stress_counters_bit_identical(self, ref):
        for sg in _scenario_graphs(ref):
            assert_matching_identical(
                maximum_matching_fifo(sg), maximum_matching_vec(sg)
            )

    @pytest.mark.parametrize("greedy_init", [True, False])
    def test_greedy_init_switch_matches(self, make_semantic, greedy_init):
        sg = make_semantic(40, 30, num_edges=200, seed=9)
        assert_matching_identical(
            maximum_matching_fifo(sg, greedy_init=greedy_init),
            maximum_matching_vec(sg, greedy_init=greedy_init),
        )

    def test_empty_graph(self, make_semantic):
        sg = make_semantic(5, 7, [])
        assert_matching_identical(
            maximum_matching_fifo(sg), maximum_matching_vec(sg)
        )

    def test_orientation_swap_is_mirrored(self, make_semantic):
        # num_dst < num_src triggers the reversed-orientation path.
        sg = make_semantic(12, 5, num_edges=30, seed=4)
        assert_matching_identical(
            maximum_matching_fifo(sg), maximum_matching_vec(sg)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        num_src=st.integers(1, 24),
        num_dst=st.integers(1, 24),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_random_graphs_bit_identical(self, num_src, num_dst, density, seed):
        rng = np.random.default_rng(seed)
        num_edges = int(density * num_src * num_dst)
        src = rng.integers(0, num_src, num_edges)
        dst = rng.integers(0, num_dst, num_edges)
        sg = SemanticGraph(Relation("a", "r", "b"), num_src, num_dst, src, dst)
        assert_matching_identical(
            maximum_matching_fifo(sg), maximum_matching_vec(sg)
        )


class TestMatchingProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        num_src=st.integers(1, 30),
        num_dst=st.integers(1, 30),
        density=st.floats(0.0, 0.6),
        seed=st.integers(0, 2**16),
    )
    def test_cardinality_matches_hopcroft_karp(
        self, num_src, num_dst, density, seed
    ):
        rng = np.random.default_rng(seed)
        num_edges = int(density * num_src * num_dst)
        src = rng.integers(0, num_src, num_edges)
        dst = rng.integers(0, num_dst, num_edges)
        sg = SemanticGraph(Relation("a", "r", "b"), num_src, num_dst, src, dst)
        result = maximum_matching_vec(sg)
        assert result.size == hopcroft_karp(sg).size
        assert result.is_valid_matching(sg)

    @settings(max_examples=25, deadline=None)
    @given(
        num_src=st.integers(1, 20),
        num_dst=st.integers(1, 20),
        seed=st.integers(0, 2**16),
    )
    def test_counters_deterministic_across_repeats(self, num_src, num_dst, seed):
        rng = np.random.default_rng(seed)
        num_edges = int(rng.integers(0, num_src * num_dst + 1))
        src = rng.integers(0, num_src, num_edges)
        dst = rng.integers(0, num_dst, num_edges)
        sg = SemanticGraph(Relation("a", "r", "b"), num_src, num_dst, src, dst)
        first = maximum_matching_vec(sg)
        second = maximum_matching_vec(sg)
        assert_matching_identical(first, second)


def scalar_conflicts(keys, num_sets, ways):
    """Conflicts of the reference lookup / insert-on-miss loop."""
    table = HashTable(num_sets, ways)
    for k in keys.tolist():
        if table.lookup(k) is None:
            table.insert(k)
    return table.stats.conflicts


#: Hash geometries of the conflict differential. 255/256/257/512 sets
#: straddle the 8-bit/16-bit boundary of the narrowed set sort key.
GEOMETRIES = (
    (1, 1), (7, 2), (16, 2), (64, 4), (255, 4), (256, 4), (257, 4), (512, 4)
)


def _set_of(key, num_sets):
    return (key * 2654435761 & 0xFFFFFFFF) % num_sets


class TestConflictReplayDifferential:
    @pytest.mark.parametrize("dataset", ["acm", "dblp"])
    def test_catalog_conflicts_match_scalar_loop(self, dataset):
        cfg = GDRConfig()
        for sg in _catalog_graphs(dataset):
            assert count_fifo_conflicts(
                sg.dst, cfg.hash_sets, cfg.hash_ways
            ) == scalar_conflicts(sg.dst, cfg.hash_sets, cfg.hash_ways)

    @pytest.mark.parametrize(
        "ref, seed",
        [(ref, 3) for ref in STRESS_REFS] + [(ref, 13) for ref in REPLAY_REFS],
    )
    def test_scenario_conflicts_match_scalar_loop(self, ref, seed):
        for sg in build_semantic_graphs(build_scenario(ref, seed=seed)):
            for keys in (sg.dst, sg.na_trace()):
                for num_sets, ways in GEOMETRIES:
                    assert count_fifo_conflicts(
                        keys, num_sets, ways
                    ) == scalar_conflicts(keys, num_sets, ways), (
                        ref,
                        num_sets,
                        ways,
                    )

    @pytest.mark.parametrize("num_sets, ways", GEOMETRIES)
    def test_long_substream_matches_scalar_loop(self, num_sets, ways):
        """Set 0's collapsed substream is longer than 256, so the
        step-column sort key needs 16 bits."""
        hot = [k for k in range(100_000) if _set_of(k, num_sets) == 0]
        rng = np.random.default_rng(num_sets)
        keys = rng.permutation(
            np.concatenate(
                [
                    np.tile(hot[: ways + 2], 600 // (ways + 2) + 1),
                    rng.integers(0, 50_000, 4 * num_sets),
                ]
            )
        )
        in_set = keys[_set_of(keys, num_sets) == 0]
        assert 1 + np.count_nonzero(in_set[1:] != in_set[:-1]) > 256
        assert count_fifo_conflicts(keys, num_sets, ways) == scalar_conflicts(
            keys, num_sets, ways
        )

    @settings(max_examples=60, deadline=None)
    @given(
        num_sets=st.integers(1, 16),
        ways=st.integers(1, 5),
        span=st.integers(1, 50),
        length=st.integers(0, 300),
        seed=st.integers(0, 2**16),
    )
    def test_random_streams_match_scalar_loop(
        self, num_sets, ways, span, length, seed
    ):
        keys = np.random.default_rng(seed).integers(0, span, length)
        assert count_fifo_conflicts(keys, num_sets, ways) == scalar_conflicts(
            keys, num_sets, ways
        )

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError):
            count_fifo_conflicts(np.arange(4), 0, 4)
        with pytest.raises(ValueError):
            count_fifo_conflicts(np.arange(4), 4, 0)


class TestBackboneAndScheduleDifferential:
    @pytest.mark.parametrize("dataset", ["acm", "dblp"])
    def test_catalog_covers_and_schedules_identical(self, dataset):
        for sg in _catalog_graphs(dataset):
            matching = maximum_matching_vec(sg)
            for strategy in ("konig", "paper"):
                a = select_backbone(sg, matching, strategy)
                b = select_backbone(sg, matching, strategy, naive=True)
                assert np.array_equal(a.src_in_mask, b.src_in_mask)
                assert np.array_equal(a.dst_in_mask, b.dst_in_mask)
            fast = select_backbone(sg, matching, "konig")
            slow = select_backbone(sg, matching, "konig", naive=True)
            fast_result = recouple(sg, matching, fast)
            slow_result = recouple(sg, matching, slow)
            for a, b in zip(
                fast_result.dst_schedules, slow_result.dst_schedules
            ):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("ref", STRESS_REFS)
    @pytest.mark.parametrize("budget", [1, 7, 256])
    def test_scenario_schedules_follow_walk(self, ref, budget):
        for sg in _scenario_graphs(ref):
            matching = maximum_matching_vec(sg)
            result = recouple(sg, matching, select_backbone(sg, matching, "konig"))
            for graph in (sg, *result.subgraphs):
                assert_walk_invariants(graph, budget)

    @settings(max_examples=40, deadline=None)
    @given(
        num_src=st.integers(1, 30),
        num_dst=st.integers(1, 30),
        density=st.floats(0.0, 0.8),
        budget=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_random_schedule_permutes_active_from_top_degree(
        self, num_src, num_dst, density, budget, seed
    ):
        rng = np.random.default_rng(seed)
        num_edges = int(density * num_src * num_dst)
        src = rng.integers(0, num_src, num_edges)
        dst = rng.integers(0, num_dst, num_edges)
        sg = SemanticGraph(Relation("a", "r", "b"), num_src, num_dst, src, dst)
        active = sg.active_dst()
        schedule = _community_schedule(sg, budget)
        assert schedule.dtype == np.int64
        assert np.array_equal(np.sort(schedule), np.sort(active))
        if active.size:
            degrees = sg.dst_degrees()[active]
            assert schedule[0] == active[np.argmax(degrees)]
        assert_walk_invariants(sg, budget)


class TestFrontendDifferential:
    @pytest.mark.parametrize("max_depth", [0, 1, 2])
    def test_recursive_frontend_reports_identical(self, max_depth):
        graph = load_dataset("acm", scale=0.25)
        for sg in build_semantic_graphs(graph):
            fast = GDRFrontend(max_depth=max_depth, min_edges=16)
            slow = GDRFrontend(max_depth=max_depth, min_edges=16, naive=True)
            fast_result, fast_report = fast.restructure(sg)
            slow_result, slow_report = slow.restructure(sg)
            assert dataclasses.asdict(fast_report.decoupler) == (
                dataclasses.asdict(slow_report.decoupler)
            )
            assert dataclasses.asdict(fast_report.recoupler) == (
                dataclasses.asdict(slow_report.recoupler)
            )
            for (fg, fs), (sg2, ss) in zip(
                fast_result.leaves(), slow_result.leaves()
            ):
                assert np.array_equal(fg.src, sg2.src)
                assert np.array_equal(fg.dst, sg2.dst)
                assert np.array_equal(fs, ss)

    @pytest.mark.parametrize(
        "ref", ["thrash:working_set=64,num_dst=16", "star:num_leaves=256"]
    )
    def test_stress_frontend_reports_identical(self, ref):
        for sg in _scenario_graphs(ref):
            _, fast_report = GDRFrontend(max_depth=1, min_edges=16).restructure(sg)
            _, slow_report = GDRFrontend(
                max_depth=1, min_edges=16, naive=True
            ).restructure(sg)
            assert dataclasses.asdict(fast_report.decoupler) == (
                dataclasses.asdict(slow_report.decoupler)
            )
            assert dataclasses.asdict(fast_report.recoupler) == (
                dataclasses.asdict(slow_report.recoupler)
            )
