"""Tests for the Decoupler, Recoupler and the integrated system."""

import pytest

from repro.accelerator.hihgnn import HiHGNNSimulator
from repro.frontend.config import GDRConfig
from repro.frontend.decoupler import Decoupler
from repro.frontend.gdr import GDRFrontend, GDRHGNNSystem
from repro.frontend.recoupler import Recoupler
from repro.graph.semantic import build_semantic_graphs
from repro.models.base import ModelConfig
from repro.restructure.hopcroft_karp import hopcroft_karp

SMALL = ModelConfig(hidden_dim=16, num_heads=4, embed_dim=8)


class TestDecoupler:
    def test_produces_maximum_matching(self, make_semantic):
        sg = make_semantic(20, 20, num_edges=80, seed=1)
        matching, report = Decoupler().run(sg)
        assert matching.size == hopcroft_karp(sg).size
        assert report.cycles > 0

    def test_dram_traffic_is_topology(self, make_semantic):
        sg = make_semantic(10, 10, num_edges=40, seed=2)
        _, report = Decoupler().run(sg)
        assert report.dram_bytes_read == sg.num_edges * 8

    def test_cycles_scale_with_edges(self, make_semantic):
        small = make_semantic(20, 20, num_edges=40, seed=3)
        large = make_semantic(20, 20, num_edges=300, seed=3)
        _, small_report = Decoupler().run(small)
        _, large_report = Decoupler().run(large)
        assert large_report.cycles > small_report.cycles

    def test_hash_conflicts_counted_for_many_destinations(self, make_semantic):
        tiny = GDRConfig(fifo_bytes=64)  # 16 FIFO slots only
        sg = make_semantic(30, 30, num_edges=200, seed=4)
        _, report = Decoupler(tiny).run(sg)
        assert report.hash_conflicts > 0


class TestRecoupler:
    def test_valid_restructure(self, make_semantic):
        sg = make_semantic(15, 15, num_edges=60, seed=5)
        matching, _ = Decoupler().run(sg)
        result, report = Recoupler().run(sg, matching)
        result.validate()
        assert report.edges_emitted == sg.num_edges
        assert report.cycles > 0

    def test_adjacency_spill_beyond_buffer(self, make_semantic):
        tiny = GDRConfig(adj_buffer_bytes=64)
        sg = make_semantic(20, 20, num_edges=100, seed=6)
        matching, _ = Decoupler(tiny).run(sg)
        _, report = Recoupler(tiny).run(sg, matching)
        assert report.dram_bytes_read > 0


class TestFrontend:
    def test_reports_per_graph(self, make_semantic):
        sg = make_semantic(12, 12, num_edges=50, seed=7)
        result, report = GDRFrontend().restructure(sg)
        result.validate()
        assert report.cycles == report.decoupler.cycles + report.recoupler.cycles

    def test_recursion_accumulates_cost(self, make_semantic):
        sg = make_semantic(30, 30, num_edges=250, seed=8)
        _, flat = GDRFrontend().restructure(sg)
        _, deep = GDRFrontend(max_depth=1, min_edges=8).restructure(sg)
        assert deep.cycles > flat.cycles


class TestSystem:
    def test_combined_report(self, tiny_imdb):
        system = GDRHGNNSystem(model_config=SMALL)
        graphs = build_semantic_graphs(tiny_imdb)
        frontend_pass = [system.frontend.restructure(sg) for sg in graphs]
        report = system.run(
            tiny_imdb, "rgcn", semantic_graphs=graphs, frontend_pass=frontend_pass
        )
        assert report.platform == "hihgnn+gdr"
        assert report.frontend_cycles == sum(r.cycles for _, r in frontend_pass)
        assert len(frontend_pass) == len(tiny_imdb.relations)
        assert report == system.run(tiny_imdb, "rgcn")

    def test_pipelining_bounds(self, tiny_imdb):
        """System time is at least the accelerator-alone restructured
        time and at most accelerator + all frontend cycles."""
        system = GDRHGNNSystem(model_config=SMALL)
        report = system.run(tiny_imdb, "rgcn")
        accel_only = HiHGNNSimulator(model_config=SMALL).run(
            tiny_imdb, "rgcn",
            restructurer=None,
        )
        assert report.total_cycles <= (
            accel_only.total_cycles + report.frontend_cycles + report.total_cycles
        )
        assert report.total_cycles > 0

    def test_dram_includes_frontend_traffic(self, tiny_imdb):
        system = GDRHGNNSystem(model_config=SMALL)
        report = system.run(tiny_imdb, "rgcn")
        accel = HiHGNNSimulator(model_config=SMALL)
        restructured_only = accel.run(
            tiny_imdb, "rgcn",
            restructured={
                k: v
                for k, v in SystemRunArtifactsHolder(system, tiny_imdb).items()
            },
            use_similarity_schedule=True,
        )
        # the system's DRAM bytes include topology streaming on top
        assert report.dram_bytes >= restructured_only.dram_bytes


def SystemRunArtifactsHolder(system, graph):
    """Recompute the restructure results the system would use."""
    from repro.accelerator.scheduler import similarity_schedule
    from repro.graph.semantic import build_semantic_graphs

    sgs = build_semantic_graphs(graph)
    order = similarity_schedule(sgs)
    out = {}
    for idx in order:
        result, _ = system.frontend.restructure(sgs[idx])
        out[str(sgs[idx].relation)] = result
    return out


class TestConfigValidation:
    def test_default_geometry_is_consistent(self):
        cfg = GDRConfig()
        assert cfg.hash_sets * cfg.hash_ways <= cfg.fifo_entries
        assert cfg.hash_sets == cfg.fifo_entries // cfg.hash_ways

    def test_rejects_fifo_pool_smaller_than_one_set(self):
        # 8 bytes / 4-byte entries = 2 FIFO slots < 4 ways.
        with pytest.raises(ValueError, match="hash_ways"):
            GDRConfig(fifo_bytes=8, hash_ways=4)

    def test_rejects_nonpositive_ways(self):
        with pytest.raises(ValueError, match="hash_ways"):
            GDRConfig(hash_ways=0)
        with pytest.raises(ValueError, match="hash_ways"):
            GDRConfig(hash_ways=-2)

    def test_indivisible_pool_rounds_down(self):
        # 24 entries / 5 ways -> 4 full sets; modeled capacity (20)
        # never exceeds the physical pool.
        cfg = GDRConfig(fifo_bytes=96, hash_ways=5)
        assert cfg.fifo_entries == 24
        assert cfg.hash_sets == 4
        assert cfg.hash_sets * cfg.hash_ways <= cfg.fifo_entries

    def test_boundary_single_set(self, make_semantic):
        cfg = GDRConfig(fifo_bytes=16, hash_ways=4)  # exactly one set
        assert cfg.hash_sets == 1
        sg = make_semantic(10, 10, num_edges=40, seed=11)
        _, report = Decoupler(cfg).run(sg)
        assert report.cycles > 0


class TestReportRename:
    def test_pushes_per_cycle_achieved(self, make_semantic):
        sg = make_semantic(12, 12, num_edges=50, seed=12)
        _, report = Decoupler().run(sg)
        assert report.pushes_per_cycle_achieved == (
            report.fifo_pushes / report.cycles
        )

    def test_deprecated_alias_removed(self, make_semantic):
        sg = make_semantic(12, 12, num_edges=50, seed=12)
        _, report = Decoupler().run(sg)
        assert not hasattr(report, "edges_per_cycle_achieved")

    def test_zero_cycles_report(self):
        from repro.frontend.decoupler import DecouplerReport

        report = DecouplerReport(
            cycles=0,
            dram_bytes_read=0,
            fifo_pushes=0,
            fifo_pops=0,
            hash_conflicts=0,
            augmenting_paths=0,
        )
        assert report.pushes_per_cycle_achieved == 0.0


class TestRecursiveCounterFolding:
    def _frontends(self):
        shallow = GDRFrontend(max_depth=0, min_edges=8)
        deep = GDRFrontend(max_depth=2, min_edges=8)
        return shallow, deep

    def test_children_fold_full_decoupler_counter_set(self, make_semantic):
        sg = make_semantic(40, 40, num_edges=300, seed=13)
        shallow, deep = self._frontends()
        _, shallow_report = shallow.restructure(sg)
        result, deep_report = deep.restructure(sg)
        assert any(child is not None for child in result.children)
        # Recursion re-runs the Decoupler on subgraphs, so every event
        # counter must grow alongside cycles -- previously only cycles
        # and DRAM bytes accumulated and the per-cycle rates went wrong.
        assert deep_report.decoupler.cycles > shallow_report.decoupler.cycles
        assert deep_report.decoupler.fifo_pushes > (
            shallow_report.decoupler.fifo_pushes
        )
        assert deep_report.decoupler.fifo_pops > (
            shallow_report.decoupler.fifo_pops
        )
        assert deep_report.recoupler.candidates_processed > (
            shallow_report.recoupler.candidates_processed
        )
        assert deep_report.recoupler.edges_emitted > (
            shallow_report.recoupler.edges_emitted
        )

    def test_folded_counters_equal_sum_over_tree(self, make_semantic):
        sg = make_semantic(30, 30, num_edges=200, seed=14)
        _, deep = self._frontends()
        result, report = deep.restructure(sg)

        def tree_graphs(node):
            yield node.original
            for child in node.children:
                if child is not None:
                    yield from tree_graphs(child)

        pushes = pops = conflicts = paths = 0
        for graph in tree_graphs(result):
            _, one = Decoupler().run(graph)
            pushes += one.fifo_pushes
            pops += one.fifo_pops
            conflicts += one.hash_conflicts
            paths += one.augmenting_paths
        assert report.decoupler.fifo_pushes == pushes
        assert report.decoupler.fifo_pops == pops
        assert report.decoupler.hash_conflicts == conflicts
        assert report.decoupler.augmenting_paths == paths

    def test_pushes_rate_consistent_at_depth(self, make_semantic):
        sg = make_semantic(40, 40, num_edges=300, seed=15)
        _, deep = self._frontends()
        _, report = deep.restructure(sg)
        assert report.decoupler.pushes_per_cycle_achieved == (
            report.decoupler.fifo_pushes / report.decoupler.cycles
        )
