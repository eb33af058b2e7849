"""Typed failure results: serialization, report degradation, stats."""

import pytest

from repro.api import CellResult, ExperimentSpec, GridResult, Session
from repro.api.results import SpeedupReport
from repro.faults import FaultPlan, FaultRule, disarm
from repro.models.base import ModelConfig
from repro.platforms import ArtifactStore
from repro.platforms.failures import CellFailure

TINY_MODEL = ModelConfig(hidden_dim=16, num_heads=2, embed_dim=8)


@pytest.fixture(autouse=True)
def clean_slate():
    disarm()
    yield
    disarm()


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        platforms=("t4", "hihgnn"),
        models=("rgcn",),
        datasets=(
            "thrash:working_set=48,num_dst=6",
            "uniform:num_dst=24,degree=2",
        ),
        seed=7,
        scale=1.0,
        model_config=TINY_MODEL,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def failure(key=("t4", "rgcn", "acm")) -> CellFailure:
    return CellFailure.from_exception(
        key, OSError("disk on fire"), attempts=2, elapsed_s=0.25
    )


class TestCellResultFailures:
    def test_from_failure_is_failed_and_zeroed(self):
        cell = CellResult.from_failure(failure())
        assert cell.status == "failed"
        assert not cell.ok
        assert cell.key == ("t4", "rgcn", "acm")
        assert cell.time_ms == 0.0
        assert cell.failure.message == "disk on fire"

    def test_failed_cell_round_trips(self):
        cell = CellResult.from_failure(failure())
        clone = CellResult.from_dict(cell.to_dict())
        assert clone == cell
        assert clone.failure == cell.failure

    def test_ok_cell_serialization_has_no_failure_keys(self):
        """The goldens guard: healthy payloads are byte-identical to
        the pre-failure-semantics format."""
        spec = tiny_spec(datasets=("uniform:num_dst=24,degree=2",))
        grid = Session(spec).run()
        payload = grid.cells[0].to_dict()
        assert "status" not in payload
        assert "failure" not in payload
        assert CellResult.from_dict(payload).ok

    def test_failed_cell_serialization_carries_both_keys(self):
        payload = CellResult.from_failure(failure()).to_dict()
        assert payload["status"] == "failed"
        assert payload["failure"]["error_type"] == "OSError"


class TestGridDegradation:
    def make_grid(self) -> GridResult:
        spec = tiny_spec()
        plan = FaultPlan(
            [FaultRule("platform.simulate", match="uniform")], seed=3
        )
        with plan:
            return Session(spec).run(on_error="collect")

    def test_failures_ok_surviving(self):
        grid = self.make_grid()
        assert not grid.ok
        assert {c.dataset for c in grid.failures} == {
            "uniform:num_dst=24,degree=2"
        }
        surviving = grid.surviving()
        assert len(surviving) + len(grid.failures) == len(grid)
        assert all(c.ok for c in surviving.values())

    def test_reports_degrade_over_survivors(self):
        grid = self.make_grid()
        speedup = grid.speedup(baseline="t4")
        assert "thrash:working_set=48,num_dst=6" in speedup["rgcn"]
        assert "uniform:num_dst=24,degree=2" not in speedup["rgcn"]
        assert speedup.geomean("hihgnn") > 0
        traffic = grid.dram_traffic(baseline="t4")
        assert traffic.geomean("t4") == pytest.approx(1.0)

    def test_grid_round_trip_preserves_failures(self):
        grid = self.make_grid()
        clone = GridResult.from_dict(grid.to_dict())
        assert clone == grid
        assert [c.key for c in clone.failures] == [
            c.key for c in grid.failures
        ]

    def test_healthy_grid_still_takes_the_strict_path(self):
        grid = Session(tiny_spec()).run()
        assert grid.ok
        # Strict mode: a missing baseline raises instead of degrading.
        cells = {c.key: c for c in grid.cells if c.platform != "t4"}
        with pytest.raises(ValueError, match="baseline"):
            SpeedupReport.from_cells(
                cells,
                models=("rgcn",),
                datasets=grid.spec.datasets,
                platforms=("hihgnn",),
                baseline="t4",
            )

    def test_all_failed_grid_reports_raise_cleanly(self):
        spec = tiny_spec()
        with FaultPlan([FaultRule("platform.simulate")], seed=3):
            grid = Session(spec).run(on_error="collect")
        assert not grid.surviving()
        with pytest.raises(ValueError, match="no surviving cells"):
            grid.speedup(baseline="t4")

    def test_failed_cells_are_not_persisted(self, tmp_path):
        spec = tiny_spec()
        store = ArtifactStore(tmp_path)
        with FaultPlan(
            [FaultRule("platform.simulate", match="uniform")], seed=3
        ):
            grid = Session(spec, store=store).run(on_error="collect")
        assert not grid.ok
        assert store.stats.puts == len(grid.surviving())
        # The next (fault-free) session recomputes only the casualties.
        healed = Session(spec, store=ArtifactStore(tmp_path)).run()
        assert healed.ok

    def test_on_error_validated(self):
        with pytest.raises(ValueError, match="on_error"):
            Session(tiny_spec()).run(on_error="ignore")


class TestStoreStats:
    def test_none_without_a_store(self):
        assert Session(tiny_spec()).store_stats() is None

    def test_live_counters_through_the_session(self, tmp_path):
        spec = tiny_spec()
        session = Session(spec, store=ArtifactStore(tmp_path))
        cold = session.run()
        stats = session.store_stats()
        assert stats["puts"] == len(cold)
        assert stats["misses"] == len(cold)
        assert stats["quarantined"] == 0
        assert set(stats) == {
            "hits", "misses", "puts", "quarantined", "evicted",
            "read_errors",
        }
        warm = Session(spec, store=ArtifactStore(tmp_path))
        warm.run()
        assert warm.store_stats()["hits"] == len(cold)
