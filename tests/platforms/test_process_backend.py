"""Process-pool execution: bit-identity with serial runs, and lanes.

The multicore contract: ``jobs > 1`` changes wall-clock behaviour
only. Reports, canonical grid JSON, store bytes and
delivery semantics (exactly once per cell) are byte-identical to a
serial run — each dataset is built by the one lane worker that owns
it, and results are finalized and persisted in the parent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, Session
from repro.faults import FaultPlan, FaultRule
from repro.models.base import ModelConfig
from repro.platforms import ArtifactStore, GridRunner, PlatformContext
from repro.platforms.runner import _mp_context, resolve_jobs
from repro.scenarios import (
    ScenarioParam,
    build_scenario,
    register_scenario,
    unregister_scenario,
)

TINY_MODEL = ModelConfig(hidden_dim=16, num_heads=2, embed_dim=8)
TINY_DATASETS = ("thrash:working_set=48,num_dst=6", "uniform:num_dst=24,degree=2")


def tiny_spec(**overrides) -> ExperimentSpec:
    params = dict(
        platforms=("t4", "hihgnn"),
        models=("rgcn",),
        datasets=TINY_DATASETS,
        seed=7,
        scale=1.0,
        model_config=TINY_MODEL,
    )
    params.update(overrides)
    return ExperimentSpec(**params)


def canonical(grid) -> str:
    return json.dumps(grid.to_dict(), sort_keys=True)


def store_tree(root: Path) -> dict[str, str]:
    """sha256 of every store file (locks excluded: advisory, empty)."""
    return {
        str(path.relative_to(root)): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and not path.name.endswith(".lock")
    }


class TestResolvers:
    def test_jobs_accepts_auto_and_numbers(self):
        import os

        assert resolve_jobs("auto") == max(1, os.cpu_count() or 1)
        assert resolve_jobs("3") == 3
        assert resolve_jobs(5) == 5
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1

    def test_jobs_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_jobs("many")


class TestRunnerProcessBackend:
    CELLS = [(p, "rgcn", d) for p in ("t4", "hihgnn") for d in TINY_DATASETS]

    def make_runner(self):
        context = PlatformContext(model_config=TINY_MODEL)
        runner = GridRunner(context, seed=7, scale=1.0)
        runner.warm_artifacts(TINY_DATASETS)
        return runner

    def test_process_grid_equals_serial(self):
        serial = dict(self.make_runner().run_cells(self.CELLS))
        worker = self.make_runner()
        parallel = dict(
            worker.run_cells(self.CELLS, jobs=2)
        )
        worker.close()
        assert serial.keys() == parallel.keys()
        for key, report in serial.items():
            assert dataclasses.asdict(report) == dataclasses.asdict(
                parallel[key]
            ), key

    def test_run_cells_yields_each_cell_once(self):
        runner = self.make_runner()
        seen = list(runner.run_cells(self.CELLS, jobs=2))
        runner.close()
        assert sorted(key for key, _ in seen) == sorted(self.CELLS)


class TestSessionProcessBackend:
    def test_parallel_grid_json_identical_to_serial(self):
        with Session(tiny_spec()) as session:
            baseline = canonical(session.run())
        with Session(tiny_spec(), jobs=4) as session:
            assert canonical(session.run()) == baseline

    def test_store_bytes_identical_across_backends(self, tmp_path):
        trees = {}
        for jobs in (1, 2):
            root = tmp_path / f"jobs{jobs}"
            with Session(
                tiny_spec(), store=ArtifactStore(root), jobs=jobs
            ) as session:
                session.run()
            trees[jobs] = store_tree(root)
        assert trees[1] == trees[2]
        assert trees[1], "store unexpectedly empty"

    def test_process_run_iter_exactly_once(self):
        spec = tiny_spec()
        with Session(spec, jobs=2) as session:
            seen = [cell.key for cell in session.run_iter()]
        assert sorted(seen) == sorted(spec.cells())

    def test_warm_store_replays_identically_under_process(self, tmp_path):
        store_root = tmp_path / "store"
        with Session(tiny_spec(), store=ArtifactStore(store_root)) as session:
            baseline = canonical(session.run())
        with Session(
            tiny_spec(),
            store=ArtifactStore(store_root),
            jobs=4,
        ) as session:
            assert canonical(session.run()) == baseline


#: Where the ``lanecount`` family logs its builds (set per test).
BUILD_LOG: Path | None = None


def _build_counted(*, seed, scale, k):
    """A small uniform graph that logs ``pid k`` on every build."""
    with open(BUILD_LOG, "a") as log:
        log.write(f"{os.getpid()} {k}\n")
    return build_scenario(
        f"uniform:num_dst={8 + 4 * k},degree=2", seed=seed, scale=scale
    )


@pytest.fixture
def counted(tmp_path, monkeypatch):
    """Three ``lanecount`` datasets and a reader of their build log.

    The family is registered in this process; pool workers see it
    (and ``BUILD_LOG``) because they fork from it.
    """
    if _mp_context().get_start_method() != "fork":
        pytest.skip("build counting reads state the workers fork with")
    monkeypatch.setattr(
        sys.modules[__name__], "BUILD_LOG", tmp_path / "builds"
    )
    register_scenario(
        "lanecount", params=(ScenarioParam("k", 0, "graph index"),)
    )(_build_counted)
    datasets = tuple(f"lanecount:k={k}" for k in (1, 2, 3))

    def builds() -> list[tuple[int, str]]:
        if not BUILD_LOG.exists():
            return []
        lines = BUILD_LOG.read_text().splitlines()
        return [
            (int(pid), f"lanecount:k={k}")
            for pid, k in (line.split() for line in lines)
        ]

    yield datasets, builds
    unregister_scenario("lanecount")


class TestLanes:
    """One owner process per dataset: built once, streamed per cell."""

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_each_dataset_built_once_per_session(self, counted, jobs):
        datasets, builds = counted
        spec = tiny_spec(datasets=datasets)
        with Session(spec, jobs=jobs) as session:
            grid = session.run()
            # A second batch of the same cells rebuilds nothing.
            cells = list(spec.cells())
            again = dict(session.compute_cells(cells, spec=spec))
        assert grid.ok and sorted(again) == sorted(cells)
        built = builds()
        assert sorted(dataset for _, dataset in built) == sorted(datasets)
        assert os.getpid() not in {pid for pid, _ in built}
        # At most `jobs` lanes, and never more than one per dataset.
        assert len({pid for pid, _ in built}) == min(jobs, len(datasets))
        with Session(spec) as serial:
            assert canonical(serial.run()) == canonical(grid)

    def test_fast_dataset_streams_before_slow_build_ends(self, counted):
        datasets, builds = counted
        fast, slow = datasets[:2]
        spec = tiny_spec(datasets=(slow, fast))
        rule = FaultRule(
            "workload.build", action="latency", latency_s=2.0, match=slow
        )
        with FaultPlan([rule]), Session(spec, jobs=2) as session:
            stream = session.run_iter()
            first = next(stream)
            assert first.dataset == fast
            assert slow not in {dataset for _, dataset in builds()}
            rest = list(stream)
        assert sorted(c.key for c in [first, *rest]) == sorted(spec.cells())
        assert all(c.ok for c in rest)

    def test_no_child_outlives_the_session(self):
        before = set(multiprocessing.active_children())
        with Session(tiny_spec(), jobs=2) as session:
            session.run()
            # The lanes stay up between calls...
            assert set(multiprocessing.active_children()) - before
        # ...and Session exit reaps them, without waiting.
        assert set(multiprocessing.active_children()) <= before

    def test_nested_call_runs_beside_the_lanes(self):
        """A second call while one is open gets lanes of its own: its
        other ``jobs`` must not shut down the lanes the first still
        waits on."""
        spec = tiny_spec(
            platforms=("t4", "a100", "hihgnn"),
            models=("rgcn", "rgat", "simple_hgn"),
        )
        cells = list(spec.cells())
        with Session(spec) as serial:
            expected = canonical(serial.run())
        # Hold the thrash cells in flight while the nested call runs.
        rule = FaultRule(
            "platform.simulate", action="latency", latency_s=0.1,
            match="thrash",
        )
        with FaultPlan([rule]), Session(spec, jobs=2) as session:
            outer = session.compute_cells(cells, spec=spec)
            first = [next(outer)]
            inner = dict(session.compute_cells(cells, spec=spec, jobs=3))
            rest = list(outer)
            grid = session.run()
        assert sorted(inner) == sorted(cells)
        assert sorted(k for k, _ in first + rest) == sorted(cells)
        assert canonical(grid) == expected

    def test_changing_jobs_restarts_the_lanes(self, counted):
        datasets, builds = counted
        spec = tiny_spec(datasets=datasets)
        with Session(spec, jobs=2) as session:
            cells = list(spec.cells())
            list(session.compute_cells(cells, spec=spec))
            list(session.compute_cells(cells, spec=spec, jobs=3))
        # Fresh lanes own nothing yet: every dataset builds again.
        assert sorted(d for _, d in builds()) == sorted(datasets * 2)

    def test_close_from_another_thread_lets_the_call_finish(self):
        """``Session.close()`` under a running call must not shut its
        lanes down (the call would block in ``wait()`` on cancelled
        cells); the call finishes, then shuts them down itself."""
        before = set(multiprocessing.active_children())
        spec = tiny_spec(models=("rgcn", "rgat", "simple_hgn"))
        cells = list(spec.cells())
        rule = FaultRule(
            "platform.simulate", action="latency", latency_s=0.2
        )
        outcomes = []
        with FaultPlan([rule]):
            session = Session(spec, jobs=2)
            stream = session.compute_cells(cells, spec=spec)
            outcomes.append(next(stream))
            closer = threading.Thread(target=session.close)
            closer.start()
            closer.join(timeout=30)
            assert not closer.is_alive()
            # The call still owns its lanes and streams every cell.
            consumer = threading.Thread(
                target=lambda: outcomes.extend(stream), daemon=True
            )
            consumer.start()
            consumer.join(timeout=60)
            assert not consumer.is_alive(), "call blocked after close()"
        assert sorted(key for key, _ in outcomes) == sorted(cells)
        assert set(multiprocessing.active_children()) <= before

    def test_workers_keep_no_report_memo(self):
        """The parent memoizes reports; long-lived lane workers must
        not hold a second copy of every report they served."""
        spec = tiny_spec()
        with Session(spec, jobs=2) as session:
            session.run()
            runner = session._workspace(spec).runner
            sizes = [
                lane.pool.submit(_worker_memo_size).result(timeout=60)
                for lane in runner._lanes
            ]
            assert len(runner.results) == len(list(spec.cells()))
        assert sizes and sizes == [0] * len(sizes)


def _worker_memo_size() -> int:
    from repro.platforms import runner

    return len(runner._WORKER_RUNNER.results)


def test_no_resource_tracker_noise_on_process_run():
    """A process-backend run must exit silently: no resource-tracker
    complaints, no ignored BufferErrors, no leaked-segment warnings."""
    script = """
import json
from repro.api import ExperimentSpec, Session
from repro.models.base import ModelConfig

spec = ExperimentSpec(
    platforms=("t4", "hihgnn"),
    models=("rgcn",),
    datasets=({datasets!r}),
    seed=7,
    scale=1.0,
    model_config=ModelConfig(hidden_dim=16, num_heads=2, embed_dim=8),
)
with Session(spec, jobs=2) as session:
    grid = session.run()
print(json.dumps(len(grid.cells)))
""".format(datasets=TINY_DATASETS)
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "4"
    for needle in ("resource_tracker", "leaked", "BufferError", "Warning"):
        assert needle not in result.stderr, result.stderr
