"""Session: blocking vs streaming runs, store round-trips, invalidation."""

import json

import pytest

from repro.api import CellResult, ExperimentSpec, GridResult, Session
from repro.api.results import RESULT_SCHEMA_VERSION
from repro.models.base import ModelConfig

SMALL_MODEL = ModelConfig(hidden_dim=32, num_heads=4, embed_dim=8)


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        platforms=("t4", "a100", "hihgnn", "hihgnn+gdr"),
        models=("rgcn",),
        datasets=("acm", "imdb"),
        seed=3,
        scale=0.08,
        model_config=SMALL_MODEL,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def grid() -> GridResult:
    return Session(small_spec()).run()


class TestRun:
    def test_canonical_order_and_completeness(self, grid):
        spec = small_spec()
        assert [cell.key for cell in grid.cells] == list(spec.cells())
        assert len(grid) == spec.grid_size

    def test_cells_typed_and_keyed(self, grid):
        cell = grid.cell("t4", "rgcn", "acm")
        assert isinstance(cell, CellResult)
        assert cell.dataset == "acm"  # grid coordinate, not "acm@0.08"
        assert cell.time_ms > 0
        assert cell.na_l2_hit_ratio is not None  # GPU field
        accel = grid.cell("hihgnn", "rgcn", "acm")
        assert accel.na_hit_ratio is not None  # accelerator field
        assert accel.total_cycles > 0

    def test_parallel_equals_serial(self):
        serial = Session(small_spec()).run()
        parallel = Session(small_spec(), jobs=4).run()
        assert serial == parallel

    def test_executor_keyword_accepts_only_process(self):
        # jobs alone picks serial or process fan-out; the keyword
        # survives only for old callers that name the process pool.
        assert Session(executor="process").jobs == 1
        for name in ("thread", "auto"):
            with pytest.raises(ValueError, match="executor"):
                Session(executor=name)

    def test_speedup_report(self, grid):
        speedup = grid.speedup(baseline="t4")
        assert speedup.geomean("t4") == pytest.approx(1.0)
        assert speedup.geomean("hihgnn") > speedup.geomean("a100") > 1.0

    def test_platform_slice_and_subset(self, grid):
        t4 = grid.platform_slice("t4")
        assert [c.dataset for c in t4] == ["acm", "imdb"]
        sub = grid.subset(platforms=("t4", "hihgnn"))
        assert [c.key for c in sub.cells] == [
            ("t4", "rgcn", "acm"),
            ("t4", "rgcn", "imdb"),
            ("hihgnn", "rgcn", "acm"),
            ("hihgnn", "rgcn", "imdb"),
        ]
        assert sub.cell("t4", "rgcn", "acm") is grid.cell("t4", "rgcn", "acm")

    def test_bandwidth_report_has_no_baseline(self, grid):
        report = grid.bandwidth()
        assert report.baseline is None
        assert report.geomean("hihgnn") > report.geomean("t4")

    def test_missing_baseline_raises(self, grid):
        sub = grid.subset(platforms=("hihgnn",))
        with pytest.raises(ValueError, match="baseline platform 't4'"):
            sub.speedup(baseline="t4")


class TestRunIter:
    def test_yields_every_cell_exactly_once(self):
        spec = small_spec()
        session = Session(spec, jobs=4)
        keys = [cell.key for cell in session.run_iter()]
        assert sorted(keys) == sorted(spec.cells())
        assert len(keys) == len(set(keys))

    def test_matches_blocking_run(self):
        spec = small_spec()
        streaming = Session(spec, jobs=2)
        by_key = {c.key: c for c in streaming.run_iter()}
        blocking = Session(spec).run()
        assert {c.key: c for c in blocking.cells} == by_key

    def test_progress_callback_counts(self):
        spec = small_spec(platforms=("t4", "hihgnn"), datasets=("acm",))
        events = []
        Session(spec, jobs=2).run(
            progress=lambda done, total, cell: events.append(
                (done, total, cell.key)
            )
        )
        assert [e[0] for e in events] == [1, 2]
        assert all(e[1] == 2 for e in events)
        assert sorted(e[2] for e in events) == sorted(spec.cells())

    def test_warm_iteration_needs_no_simulation(self):
        session = Session(small_spec())
        first = list(session.run_iter())
        # Second pass is served from the memo in spec order.
        second = list(session.run_iter())
        assert [c.key for c in second] == list(small_spec().cells())
        assert {c.key: c for c in first} == {c.key: c for c in second}

    def test_abandoned_iterator_cancels_queued_cells(self):
        # A consumer that breaks early must not pay for the whole
        # grid: queued (not yet running) cells are cancelled, so at
        # most first + in-flight cells ever compute.
        spec = small_spec()
        session = Session(spec, jobs=1)
        iterator = session.run_iter(jobs=2)
        next(iterator)
        iterator.close()
        workspace = session._workspace(spec)
        assert len(workspace.cells) < spec.grid_size

    def test_unknown_platform_fails_before_any_work(self):
        session = Session(small_spec())
        bad = small_spec(platforms=("t4",)).replace  # build via replace
        with pytest.raises(ValueError, match="unknown platform"):
            bad(platforms=("t4", "nope"))
        # The session itself also rejects direct cell queries.
        with pytest.raises(ValueError, match="unknown platform"):
            session.cell("nope", "rgcn", "acm")


class TestGridRoundTrip:
    def test_bit_identical_dict_round_trip(self, grid):
        payload = grid.to_dict()
        rebuilt = GridResult.from_dict(payload)
        assert rebuilt == grid
        assert rebuilt.to_dict() == payload
        # Byte-identical through actual JSON text, floats included.
        text = json.dumps(payload, indent=2, sort_keys=True)
        again = json.dumps(GridResult.from_dict(json.loads(text)).to_dict(),
                           indent=2, sort_keys=True)
        assert again == text

    def test_schema_version_checked(self, grid):
        payload = grid.to_dict()
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version mismatch"):
            GridResult.from_dict(payload)


class TestStore:
    def test_cold_then_warm_counts(self, tmp_path):
        from repro.platforms import ArtifactStore

        spec = small_spec()
        cold = Session(spec, store=ArtifactStore(tmp_path), jobs=2)
        cold_grid = cold.run()
        cells = spec.grid_size
        assert cold.store.stats.misses == cells
        assert cold.store.stats.puts == cells
        assert cold.store.stats.hits == 0

        warm = Session(spec, store=ArtifactStore(tmp_path))
        warm_grid = warm.run()
        assert warm.store.stats.hits == cells
        assert warm.store.stats.misses == 0
        # Served purely from typed payloads: no graphs, no artifacts.
        assert not warm.runner._graphs
        assert not warm.runner._artifacts
        assert warm_grid == cold_grid

    def test_store_round_trip_counts(self, tmp_path):
        from repro.platforms import ArtifactStore

        spec = small_spec()
        cold_grid = Session(spec, store=ArtifactStore(tmp_path)).run()

        # A warm run asked to fan out still computes nothing.
        warm = Session(spec, store=ArtifactStore(tmp_path), jobs=4)
        warm_grid = warm.run()
        assert warm.store.stats.hits == spec.grid_size
        assert (warm.store.stats.misses, warm.store.stats.puts) == (0, 0)
        assert not warm.runner.results
        assert not warm.runner._graphs
        assert warm_grid == cold_grid

    def test_entries_keyed_by_platform_config(self, tmp_path):
        import dataclasses

        from repro.platforms import ArtifactStore

        spec = small_spec(platforms=("hihgnn",), datasets=("acm",))
        Session(spec, store=ArtifactStore(tmp_path)).run()

        # Same config: hit. Different accelerator config: miss.
        hit = Session(spec, store=ArtifactStore(tmp_path))
        hit.run()
        assert (hit.store.stats.hits, hit.store.stats.misses) == (1, 0)
        small = dataclasses.replace(spec.accelerator, na_buffer_bytes=1 << 20)
        miss = Session(
            spec.replace(accelerator=small), store=ArtifactStore(tmp_path)
        )
        miss.run()
        assert (miss.store.stats.hits, miss.store.stats.misses) == (0, 1)

    def test_entries_keyed_by_seed_and_scale(self, tmp_path):
        from repro.platforms import ArtifactStore

        spec = small_spec(platforms=("t4",), datasets=("acm",))
        Session(spec, store=ArtifactStore(tmp_path)).run()
        for changed in (spec.replace(seed=4), spec.replace(scale=0.1)):
            other = Session(changed, store=ArtifactStore(tmp_path))
            other.run()
            assert other.store.stats.hits == 0

    def test_result_schema_bump_invalidates(self, tmp_path, monkeypatch):
        from repro.platforms import ArtifactStore

        spec = small_spec(platforms=("t4",), datasets=("acm",))
        Session(spec, store=ArtifactStore(tmp_path)).run()

        # A future library version with a bumped result schema must
        # recompute rather than trust the stale payload.
        import repro.api.session as session_module

        monkeypatch.setattr(
            session_module,
            "_CELL_SCHEMA",
            ("cell-result", RESULT_SCHEMA_VERSION + 1),
        )
        bumped = Session(spec, store=ArtifactStore(tmp_path))
        bumped.run()
        assert bumped.store.stats.hits == 0
        assert bumped.store.stats.misses == 1
        assert bumped.runner._graphs  # it really simulated

    def test_corrupt_entry_recomputed(self, tmp_path):
        from repro.platforms import ArtifactStore

        spec = small_spec(platforms=("t4",), datasets=("acm",))
        first = Session(spec, store=ArtifactStore(tmp_path))
        first_grid = first.run()
        for path in ArtifactStore(tmp_path).root.glob("*/*.pkl"):
            path.write_bytes(b"truncated garbage")
        second = Session(spec, store=ArtifactStore(tmp_path))
        second_grid = second.run()
        assert second.store.stats.hits == 0
        assert second_grid == first_grid


class TestWorkspaces:
    def test_specs_with_same_universe_share_caches(self):
        session = Session(small_spec())
        session.run(small_spec(platforms=("t4",), datasets=("acm",)))
        runner = session.runner
        session.run(small_spec(platforms=("hihgnn",), datasets=("acm",)))
        assert session.runner is runner
        assert set(runner._graphs) == {"acm"}

    def test_different_seed_does_not_collide(self):
        session = Session(small_spec(platforms=("t4",), datasets=("acm",)))
        a = session.run()
        b = session.run(
            small_spec(platforms=("t4",), datasets=("acm",), seed=4)
        )
        assert a.cells[0].time_ms != b.cells[0].time_ms or (
            a.cells[0] != b.cells[0]
        )


class TestScenarioWorkloads:
    """Sessions treat scenario sweep points like any other dataset."""

    def scenario_spec(self, **overrides) -> ExperimentSpec:
        return small_spec(
            platforms=("t4", "hihgnn"),
            datasets=(
                "thrash:working_set=48,num_dst=6",
                "uniform:num_dst=24,degree=2",
            ),
            scale=1.0,
            **overrides,
        )

    def test_grid_runs_and_labels_cells(self):
        grid = Session(self.scenario_spec()).run()
        assert len(grid) == 4
        datasets = {cell.dataset for cell in grid.cells}
        assert datasets == {
            "thrash:working_set=48,num_dst=6",
            "uniform:num_dst=24,degree=2",
        }

    def test_topology_artifacts_warmed_and_shared(self):
        session = Session(self.scenario_spec())
        session.run()
        runner = session.runner
        assert set(runner._graphs) == set(self.scenario_spec().datasets)
        assert set(runner._artifacts) == set(self.scenario_spec().datasets)
        graph = session.graph("thrash:working_set=48,num_dst=6")
        assert graph is runner._graphs["thrash:working_set=48,num_dst=6"]
        # A second run re-uses the same warmed artifacts.
        artifacts = dict(runner._artifacts)
        session.run()
        assert runner._artifacts == artifacts

    def test_cold_then_warm_store_round_trip(self, tmp_path):
        from repro.platforms import ArtifactStore

        spec = self.scenario_spec()
        cold = Session(spec, store=ArtifactStore(tmp_path))
        cold_grid = cold.run()
        assert cold.store.stats.misses == 4
        warm = Session(spec, store=ArtifactStore(tmp_path))
        warm_grid = warm.run()
        assert warm.store.stats.hits == 4
        assert warm.store.stats.misses == 0
        assert not warm.runner._graphs  # no scenario was regenerated
        assert warm_grid == cold_grid

    def test_changed_sweep_point_misses_the_store(self, tmp_path):
        from repro.platforms import ArtifactStore

        Session(
            self.scenario_spec(), store=ArtifactStore(tmp_path)
        ).run()
        shifted = small_spec(
            platforms=("t4", "hihgnn"),
            datasets=(
                "thrash:working_set=49,num_dst=6",  # one vertex more
                "uniform:num_dst=24,degree=2",
            ),
            scale=1.0,
        )
        second = Session(shifted, store=ArtifactStore(tmp_path))
        second.run()
        # The unchanged sweep point hits; the changed one re-simulates.
        assert second.store.stats.hits == 2
        assert second.store.stats.misses == 2

    def test_changed_seed_misses_the_store(self, tmp_path):
        from repro.platforms import ArtifactStore

        spec = small_spec(
            platforms=("t4",),
            datasets=("uniform:num_dst=24,degree=2",),
            scale=1.0,
        )
        Session(spec, store=ArtifactStore(tmp_path)).run()
        reseeded = Session(
            spec.replace(seed=spec.seed + 1), store=ArtifactStore(tmp_path)
        )
        reseeded.run()
        assert reseeded.store.stats.hits == 0
