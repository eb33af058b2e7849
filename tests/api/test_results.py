"""Typed result objects: normalization, legacy indexing, round trips."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.api.results import (
    AreaReport,
    CellResult,
    DatasetStatRow,
    DatasetStatsReport,
    SpeedupReport,
    SystemConfigReport,
    ThrashingReport,
    geomean,
    metric_report_from_dict,
)


def gpu_report(**overrides):
    base = dict(
        platform="t4",
        model="rgcn",
        dataset="acm",
        time_ms=np.float64(10.0),
        dram_accesses=np.int64(1000),
        dram_bytes=np.int64(64000),
        bandwidth_utilization=np.float64(0.25),
        na_l2_hit_ratio=0.5,
        kernel_launches=42,
    )
    base.update(overrides)
    return SimpleNamespace(**base)


def accel_report(**overrides):
    base = dict(
        platform="hihgnn",
        model="rgcn",
        dataset="acm",
        time_ms=1.0,
        dram_accesses=100,
        dram_bytes=6400,
        bandwidth_utilization=0.75,
        na_hit_ratio=0.9,
        total_cycles=1_000_000,
        frontend_cycles=0,
    )
    base.update(overrides)
    return SimpleNamespace(**base)


class TestCellResult:
    def test_from_gpu_report_normalizes_numpy(self):
        cell = CellResult.from_report(gpu_report())
        assert type(cell.time_ms) is float
        assert type(cell.dram_accesses) is int
        assert cell.na_hit_ratio is None
        assert cell.na_l2_hit_ratio == 0.5
        assert cell.kernel_launches == 42

    def test_from_accelerator_report(self):
        cell = CellResult.from_report(accel_report())
        assert cell.na_l2_hit_ratio is None
        assert cell.na_hit_ratio == 0.9
        assert cell.total_cycles == 1_000_000

    def test_speedup_over(self):
        fast = CellResult.from_report(accel_report())
        slow = CellResult.from_report(gpu_report())
        assert fast.speedup_over(slow) == pytest.approx(10.0)

    def test_round_trip(self):
        cell = CellResult.from_report(gpu_report())
        assert CellResult.from_dict(cell.to_dict()) == cell

    def test_schema_mismatch_rejected(self):
        payload = CellResult.from_report(gpu_report()).to_dict()
        payload["schema_version"] = 0
        with pytest.raises(ValueError, match="schema_version mismatch"):
            CellResult.from_dict(payload)


def cell_map():
    cells = {}
    for platform, time_ms, accesses in (
        ("t4", 10.0, 1000),
        ("hihgnn", 1.0, 100),
    ):
        for dataset, factor in (("acm", 1.0), ("imdb", 2.0)):
            cell = CellResult(
                platform=platform,
                model="rgcn",
                dataset=dataset,
                time_ms=time_ms * factor,
                dram_accesses=int(accesses * factor),
                dram_bytes=0,
                bandwidth_utilization=0.5,
            )
            cells[cell.key] = cell
    return cells


class TestMetricReport:
    def test_speedup_values_and_geomean(self):
        report = SpeedupReport.from_cells(
            cell_map(),
            models=("rgcn",),
            datasets=("acm", "imdb"),
            platforms=("t4", "hihgnn"),
            baseline="t4",
        )
        assert report.value("hihgnn", "rgcn", "acm") == pytest.approx(10.0)
        assert report.geomean("t4") == pytest.approx(1.0)
        assert report.geomean("hihgnn") == pytest.approx(10.0)

    def test_legacy_nested_indexing(self):
        report = SpeedupReport.from_cells(
            cell_map(),
            models=("rgcn",),
            datasets=("acm", "imdb"),
            platforms=("t4", "hihgnn"),
            baseline="t4",
        )
        assert report["rgcn"]["acm"]["hihgnn"] == pytest.approx(10.0)
        assert report["GEOMEAN"]["all"]["t4"] == pytest.approx(1.0)
        assert "GEOMEAN" in report
        assert set(report) == {"rgcn", "GEOMEAN"}

    def test_missing_baseline_named(self):
        cells = {
            k: v for k, v in cell_map().items() if k[0] != "t4"
        }
        with pytest.raises(ValueError, match="baseline cell"):
            SpeedupReport.from_cells(
                cells,
                models=("rgcn",),
                datasets=("acm",),
                platforms=("hihgnn",),
                baseline="t4",
            )

    def test_round_trip_dispatches_on_kind(self):
        report = SpeedupReport.from_cells(
            cell_map(),
            models=("rgcn",),
            datasets=("acm", "imdb"),
            platforms=("t4", "hihgnn"),
            baseline="t4",
        )
        rebuilt = metric_report_from_dict(report.to_dict())
        assert isinstance(rebuilt, SpeedupReport)
        assert rebuilt == report

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown metric report kind"):
            metric_report_from_dict({"kind": "nope"})


class TestGeomean:
    def test_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestThrashingReport:
    def test_from_profile_and_round_trip(self):
        profile = SimpleNamespace(
            dataset="acm",
            model="rgcn",
            na_hit_ratio=np.float64(0.5),
            redundant_accesses=np.int64(10),
            total_na_misses=20,
            histogram={
                np.int64(1): {"vertex_ratio": np.float64(0.5),
                              "access_ratio": 0.4},
            },
        )
        report = ThrashingReport.from_profile(profile, restructured=True)
        assert report.histogram == {
            1: {"vertex_ratio": 0.5, "access_ratio": 0.4}
        }
        assert report.redundancy_fraction == pytest.approx(0.5)
        rebuilt = ThrashingReport.from_dict(report.to_dict())
        assert rebuilt == report
        assert rebuilt.histogram[1]["vertex_ratio"] == 0.5  # int keys back


class TestOtherReports:
    def test_dataset_stats_round_trip(self):
        row = DatasetStatRow(dataset="acm", vertex_type="paper",
                             vertices=10, feature_dim=4)
        report = DatasetStatsReport(rows=(row,), edges={"acm": 5})
        assert len(report) == 1
        assert report[0] is row
        assert DatasetStatsReport.from_dict(report.to_dict()) == report

    def test_system_config_from_configs(self):
        report = SystemConfigReport.from_configs()
        assert report.hihgnn["peak_tflops"] == pytest.approx(16.38)
        assert report.gdr_hgnn["fifo_kb"] == pytest.approx(8.0)
        assert SystemConfigReport.from_dict(report.to_dict()) == report

    def test_area_report_round_trip(self):
        report = AreaReport.from_breakdown()
        assert report.components
        assert 0 < report.shares["gdr_area_share"] < 0.1
        assert AreaReport.from_dict(report.to_dict()) == report
