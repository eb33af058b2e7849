"""Model-independent replays are computed once per dataset and shared.

A GPU's L2 replay and the GDR pass's leaf replay artifacts depend on
topology, the card (or frontend) configuration and the feature-vector
size, never on the HGNN model. These tests pin that sharing them
never changes a result: the memo key is complete, no report aliases a
memoized object, every leaf artifact equals a fresh build, and the
default grid computes each replay exactly once.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

import repro.gpu.platform as gpu_platform
from repro.api import ExperimentSpec, Session
from repro.api.results import CellResult
from repro.frontend.gdr import GDRHGNNSystem
from repro.gpu.config import T4
from repro.gpu.gpumodel import GPUSimulator, L2Pass, replay_l2
from repro.gpu.platform import GPUPlatform, T4Platform
from repro.graph.csr import gather_rows
from repro.memory.replay import TraceArtifact
from repro.models.base import ModelConfig
from repro.platforms import (
    GridRunner,
    PlatformContext,
    register_platform,
    unregister_platform,
)
from repro.platforms.base import DatasetArtifacts

MODELS = ("rgcn", "rgat", "simple_hgn")
# small_dblp's L2 working set: T4's L2 binds differently at 256- and
# 512-wide features, and at 1 and 4 MiB.
RUNNER_ARGS = dict(seed=4, scale=0.1)
REPLAY_FIELDS = (
    "trace", "prev", "first_pos", "last_pos", "uniq_sorted", "id_index",
    "distances",
)


def _payload(report) -> dict:
    return CellResult.from_report(report).to_dict()


def _l2_passes(artifacts: DatasetArtifacts) -> list[L2Pass]:
    return [v for v in artifacts._passes.values() if isinstance(v, L2Pass)]


def _leaf_replays(artifacts: DatasetArtifacts, context: PlatformContext):
    system = GDRHGNNSystem(
        context.accelerator, context.frontend, context.model_config
    )
    for result, _ in artifacts.frontend_pass(system.frontend):
        yield from zip(result.leaves(), result.leaf_replays)


def _snapshot(artifacts: DatasetArtifacts, context: PlatformContext) -> list:
    """Deep copy of every memoized replay result."""
    l2 = [
        (p.misses, dataclasses.replace(p.stats), copy.deepcopy(p.histogram))
        for p in _l2_passes(artifacts)
    ]
    leaves = [
        [getattr(replay, name).copy() for name in REPLAY_FIELDS]
        for _, replay in _leaf_replays(artifacts, context)
    ]
    return [l2, leaves]


def _assert_same(a, b) -> None:
    if isinstance(a, np.ndarray):
        assert np.array_equal(a, b)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b


class TestKey:
    def test_gpu_variant_with_other_l2_equals_fresh(self):
        @register_platform("t4-1mb-l2")
        class SmallL2T4(GPUPlatform):
            gpu_config = dataclasses.replace(T4, l2_bytes=T4.l2_bytes // 4)

        try:
            shared = GridRunner(PlatformContext(), **RUNNER_ARGS)
            base = shared.run_cell("t4", "rgcn", "dblp")
            variant = shared.run_cell("t4-1mb-l2", "rgcn", "dblp")
            assert len(_l2_passes(shared.artifacts("dblp"))) == 2
            alone = GridRunner(PlatformContext(), **RUNNER_ARGS).run_cell(
                "t4-1mb-l2", "rgcn", "dblp"
            )
            assert _payload(variant) == _payload(alone)
            # A quarter of the L2 misses more: the variant really
            # replayed its own cache.
            assert variant.l2.misses > base.l2.misses
        finally:
            unregister_platform("t4-1mb-l2")

    def test_feature_width_gets_its_own_replay(self, small_dblp):
        shared = DatasetArtifacts.build(small_dblp)
        narrow = PlatformContext(model_config=ModelConfig(hidden_dim=256))
        default = T4Platform().simulate("rgcn", shared)
        report = T4Platform(narrow).simulate("rgcn", shared)
        alone = T4Platform(narrow).simulate(
            "rgcn", DatasetArtifacts.build(small_dblp)
        )
        assert _payload(report) == _payload(alone)
        assert report.l2.misses < default.l2.misses
        assert len(_l2_passes(shared)) == 2


class TestNoAliasing:
    def test_models_leave_the_memo_unchanged(self):
        context = PlatformContext()
        runner = GridRunner(context, **RUNNER_ARGS)
        artifacts = runner.artifacts("dblp")
        platforms = ("t4", "a100", "hihgnn+gdr")
        for platform in platforms:
            runner.run_cell(platform, "rgcn", "dblp")
        before = _snapshot(artifacts, context)
        for model in MODELS:
            for platform in platforms:
                runner.run_cell(platform, model, "dblp")
        _assert_same(_snapshot(artifacts, context), before)
        assert len(_l2_passes(artifacts)) == 2

    def test_mutating_a_report_leaves_the_next_cell_alone(self):
        shared = GridRunner(PlatformContext(), **RUNNER_ARGS)
        first = shared.run_cell("t4", "rgcn", "dblp")
        first.l2.hits += 1000
        first.l2.misses = 0
        first.na_replacement_histogram[1]["vertex_ratio"] = -1.0
        first.na_replacement_histogram.pop(2)
        nxt = shared.run_cell("t4", "rgat", "dblp")
        alone = GridRunner(PlatformContext(), **RUNNER_ARGS).run_cell(
            "t4", "rgat", "dblp"
        )
        # Neither field is in the cell payload; compare them directly.
        assert nxt.l2 == alone.l2
        assert nxt.na_replacement_histogram == alone.na_replacement_histogram
        assert _payload(nxt) == _payload(alone)


def test_run_without_a_pass_replays_the_same_l2(small_dblp):
    artifacts = DatasetArtifacts.build(small_dblp)
    shared = T4Platform().simulate("rgat", artifacts)
    direct = GPUSimulator(T4).run(
        small_dblp, "rgat", semantic_graphs=artifacts.semantic_graphs
    )
    assert _payload(shared) == _payload(direct)


def test_leaf_replays_equal_fresh_artifacts(small_dblp):
    context = PlatformContext()
    artifacts = DatasetArtifacts.build(small_dblp)
    pairs = list(_leaf_replays(artifacts, context))
    assert pairs
    for (sub, schedule), replay in pairs:
        fresh = TraceArtifact(
            gather_rows(sub.csc, schedule) + sub.src_global_base
        )
        assert replay.n == sub.num_edges
        for name in REPLAY_FIELDS:
            assert np.array_equal(
                getattr(replay, name), getattr(fresh, name)
            ), name


def test_default_grid_builds_each_replay_once(monkeypatch):
    builds: list[int] = []
    original_init = TraceArtifact.__init__

    def counted_init(self, trace):
        builds.append(len(trace))
        original_init(self, trace)

    l2_passes: list[tuple] = []

    def counted_replay(semantic_graphs, config, entry_bytes):
        l2_passes.append((id(semantic_graphs), config.name))
        return replay_l2(semantic_graphs, config, entry_bytes)

    monkeypatch.setattr(TraceArtifact, "__init__", counted_init)
    monkeypatch.setattr(gpu_platform, "replay_l2", counted_replay)
    spec = ExperimentSpec(scale=0.3)
    session = Session(spec)
    assert len(session.run()) == 36
    grid_builds = len(builds)
    leaves = sum(
        len(list(_leaf_replays(session.runner.artifacts(name), spec.context())))
        for name in spec.datasets
    )
    assert len(builds) == grid_builds, "the frontend pass was not memoized"
    assert grid_builds == 20 + leaves
    assert len(l2_passes) == len(set(l2_passes)) == 6
