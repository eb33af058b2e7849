"""GridRunner: parallel/serial equality, memoization, shared artifacts."""

import pytest

from repro.models.base import ModelConfig
from repro.platforms import GridRunner, PlatformContext

SMALL_MODEL = ModelConfig(hidden_dim=32, num_heads=4, embed_dim=8)
PLATFORMS = ("t4", "a100", "hihgnn", "hihgnn+gdr")
MODELS = ("rgcn",)
DATASETS = ("acm", "imdb")


def make_runner():
    context = PlatformContext(model_config=SMALL_MODEL)
    return GridRunner(context, seed=3, scale=0.08)


def run_all(runner, platforms=PLATFORMS, datasets=DATASETS, *, jobs=1):
    """Warm, then fan out every cell: the sequence Session.run_iter uses."""
    cells = [(p, m, d) for p in platforms for m in MODELS for d in datasets]
    runner.warm_artifacts(datasets, jobs=jobs)
    return dict(runner.run_cells(cells, jobs=jobs))


def report_fingerprint(report):
    return (
        report.platform,
        report.model,
        report.dataset,
        report.time_ms,
        report.dram_accesses,
        report.dram_bytes,
        report.bandwidth_utilization,
        report.na_hit_ratio if hasattr(report, "na_hit_ratio") else None,
    )


class TestGridRunner:
    def test_parallel_equals_serial(self):
        serial = run_all(make_runner())
        parallel = run_all(make_runner(), jobs=4)
        assert serial.keys() == parallel.keys()
        for key, report in serial.items():
            assert report_fingerprint(report) == report_fingerprint(
                parallel[key]
            ), key

    def test_results_memoized(self):
        runner = make_runner()
        first = runner.run_cell("t4", "rgcn", "acm")
        assert runner.run_cell("t4", "rgcn", "acm") is first
        grid = run_all(runner, ("t4",), ("acm",))
        assert grid[("t4", "rgcn", "acm")] is first

    def test_duplicate_cells_deduped(self):
        runner = make_runner()
        cell = ("t4", "rgcn", "acm")
        runner.warm_artifacts(("acm",), jobs=2)
        outcomes = [
            report for _, report in runner.run_cells([cell, cell], jobs=2)
        ]
        assert len(outcomes) == 2
        assert outcomes[0] is outcomes[1]
        assert list(runner.results) == [cell]

    def test_unknown_platform_fails_before_any_work(self):
        runner = make_runner()
        # A configuration error, never a collected CellFailure.
        with pytest.raises(ValueError, match="unknown platform"):
            list(runner.run_cells(
                [("nope", "rgcn", "acm")], on_error="collect"
            ))
        assert not runner.results
        assert not runner._graphs
        assert not runner._artifacts

    def test_artifacts_shared_across_platforms(self):
        runner = make_runner()
        run_all(runner, ("t4", "hihgnn"), ("acm",), jobs=2)
        assert runner.artifacts("acm") is runner.artifacts("acm")
        sgs = runner.artifacts("acm").semantic_graphs
        for sg in sgs:
            assert sg._na_artifact is not None
