"""Process-pool execution: bit-identity with serial runs.

The multicore contract: ``jobs > 1`` changes wall-clock behaviour
only. Reports, canonical grid JSON, store bytes and
delivery semantics (exactly once per cell) are byte-identical to a
serial run — workers attach the parent's published shared-memory
artifacts and their results are finalized and persisted in the parent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, Session
from repro.models.base import ModelConfig
from repro.platforms import ArtifactStore, GridRunner, PlatformContext
from repro.platforms.runner import resolve_jobs

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
