"""The paper's figures and tables from one session (reduced scale)."""

import pytest

from repro.analysis.thrashing import thrashing_analysis
from repro.api import ExperimentSpec, Session, SystemConfigReport
from repro.api.results import geomean
from repro.energy.breakdown import figure10_shares
from repro.graph.stats import graph_stats
from repro.models.base import ModelConfig
from repro.platforms import ArtifactStore

FAST = ExperimentSpec(
    datasets=("acm", "imdb"),
    models=("rgcn",),
    seed=3,
    scale=0.08,
    model_config=ModelConfig(hidden_dim=32, num_heads=4, embed_dim=8),
)


@pytest.fixture(scope="module")
def session():
    with Session(FAST) as shared:
        yield shared


@pytest.fixture(scope="module")
def grid(session):
    return session.run()


class TestGeomean:
    def test_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestSpecValidation:
    def test_validates_datasets_eagerly(self):
        with pytest.raises(ValueError, match="unknown dataset 'aacm'"):
            FAST.replace(datasets=("aacm",))

    def test_validates_models_eagerly(self):
        with pytest.raises(ValueError, match="unknown model 'rgnn'"):
            FAST.replace(models=("rgnn",))

    def test_accepts_model_aliases(self):
        FAST.replace(models=("RGCN", "simple-hgn"))


class TestCells:
    def test_results_cached(self, session):
        a = session.cell("t4", "rgcn", "acm")
        b = session.cell("t4", "rgcn", "acm")
        assert a is b

    def test_unknown_platform(self, session):
        with pytest.raises(ValueError, match="unknown platform"):
            session.cell("h100", "rgcn", "acm")

    def test_registered_variant_runs_through_session(self, session):
        """A fifth platform is one decorator away from the whole grid."""
        import dataclasses

        from repro.gpu.config import A100
        from repro.gpu.platform import GPUPlatform
        from repro.platforms import register_platform, unregister_platform

        @register_platform("a100-slow-hbm")
        class SlowHBMA100(GPUPlatform):
            gpu_config = dataclasses.replace(A100, mem_bw_gbps=320.0)

        try:
            report = session.cell("a100-slow-hbm", "rgcn", "acm")
            assert report.time_ms >= session.cell("a100", "rgcn", "acm").time_ms
        finally:
            unregister_platform("a100-slow-hbm")


class TestFigures:
    def test_figure7_structure(self, grid):
        f7 = grid.speedup()
        assert "GEOMEAN" in f7
        for platform in FAST.platforms:
            assert f7["GEOMEAN"]["all"][platform] > 0
        assert f7["GEOMEAN"]["all"]["t4"] == pytest.approx(1.0)

    def test_figure7_ordering(self, grid):
        """Expected platform ordering: T4 slowest, GDR system fastest."""
        g = grid.speedup()["GEOMEAN"]["all"]
        assert g["a100"] > g["t4"]
        assert g["hihgnn"] > g["a100"]
        assert g["hihgnn+gdr"] >= g["hihgnn"] * 0.95

    def test_figure8_accelerators_access_less(self, grid):
        g = grid.dram_traffic()["GEOMEAN"]["all"]
        assert g["t4"] == pytest.approx(1.0)
        assert g["hihgnn"] < g["t4"]
        assert g["hihgnn+gdr"] <= g["hihgnn"] * 1.05

    def test_figure9_accelerators_better_utilization(self, grid):
        g = grid.bandwidth()["GEOMEAN"]["all"]
        assert g["hihgnn"] > g["t4"]
        assert g["hihgnn+gdr"] > g["a100"]

    def test_figure2_profiles(self, session):
        for dataset in FAST.datasets:
            profile = thrashing_analysis(
                session.graph(dataset),
                "rgcn",
                config=FAST.accelerator,
                model_config=FAST.model_config,
                semantic_graphs=session.semantic_graphs(dataset),
            )
            assert 0.0 <= profile.na_hit_ratio <= 1.0
            assert profile.redundant_accesses >= 0

    def test_section3_l2(self, grid):
        for cell in grid.platform_slice("t4"):
            assert 0.0 <= cell.na_l2_hit_ratio <= 1.0

    def test_table2_rows(self, session):
        graphs = [session.graph(dataset) for dataset in FAST.datasets]
        counts = [
            graph.num_vertices(vtype)
            for graph in graphs
            for vtype in graph.vertex_types
        ]
        assert len(counts) == 8  # two datasets x four types
        assert all(count > 0 for count in counts)

    def test_figure10(self):
        shares = figure10_shares(FAST.accelerator, FAST.frontend)
        assert 0 < shares["gdr_area_share"] < 0.1

    def test_dataset_profile(self, session):
        profile = {
            str(sg.relation): graph_stats(sg).as_dict()
            for sg in session.semantic_graphs("acm")
        }
        assert profile
        assert all("num_edges" in stats for stats in profile.values())

    def test_table3_structure(self):
        table = SystemConfigReport.from_configs(
            FAST.accelerator, FAST.frontend
        )
        assert table.hihgnn["peak_tflops"] == pytest.approx(16.38)
        assert table.gdr_hgnn["fifo_kb"] == pytest.approx(8.0)


class TestFigureTables:
    def test_warm_store_skips_all_simulation(self, tmp_path):
        with Session(FAST, store=ArtifactStore(tmp_path), jobs=2) as cold:
            f7 = cold.run().speedup()

        with Session(FAST, store=ArtifactStore(tmp_path)) as warm:
            grid = warm.run()
            assert warm.store.stats.hits == FAST.grid_size
            assert warm.store.stats.misses == 0
            assert not warm.runner._graphs  # nothing was regenerated
        assert grid.speedup() == f7

    def test_parallel_equals_serial_tables(self):
        with Session(FAST) as serial_session:
            serial = serial_session.run()
        with Session(FAST, jobs=4) as parallel_session:
            parallel = parallel_session.run()
        assert serial.speedup() == parallel.speedup()
        assert serial.dram_traffic() == parallel.dram_traffic()
        assert serial.bandwidth() == parallel.bandwidth()
