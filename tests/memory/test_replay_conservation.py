"""Conservation invariants of the memory replays, over the scenario catalog.

Every report's buffer (or L2) hits and misses add up to exactly the
accesses replayed into it: the NA traces of every semantic graph for a
GPU's L2, and the edges of every scheduled leaf for the accelerator's
NA buffers. And a fully associative LRU never misses more with more
capacity, whether it starts empty or carries state from earlier
accesses (Mattson's inclusion property). Stack distances composed
from the parts of a concatenated trace equal the whole trace's.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.gdr import GDRHGNNSystem
from repro.graph.semantic import build_semantic_graphs
from repro.memory.replay import TraceArtifact, compose_distances, replay_lru
from repro.models.base import ModelConfig
from repro.platforms import PlatformContext, get_platform_class
from repro.platforms.base import DatasetArtifacts
from repro.scenarios import build_scenario

from tests.restructure.test_conservation import scenario_refs

# 64 KiB feature vectors shrink the L2s and NA buffers to tens or
# hundreds of entries, so the catalog's small graphs overflow them.
CONTEXT = PlatformContext(model_config=ModelConfig(hidden_dim=16384))


@settings(max_examples=25, deadline=None)
@given(
    ref=scenario_refs(),
    seed=st.integers(0, 50),
    model=st.sampled_from(("rgcn", "rgat", "simple_hgn")),
)
def test_hits_plus_misses_equal_accesses(ref, seed, model):
    artifacts = DatasetArtifacts.build(build_scenario(ref, seed=seed))
    graphs = artifacts.semantic_graphs
    trace_accesses = sum(len(sg.na_trace()) for sg in graphs)
    for name in ("t4", "a100"):
        report = get_platform_class(name)(CONTEXT).simulate(model, artifacts)
        assert report.l2.hits + report.l2.misses == trace_accesses, (ref, name)

    system = GDRHGNNSystem(
        CONTEXT.accelerator, CONTEXT.frontend, CONTEXT.model_config
    )
    leaf_edges = sum(
        sub.num_edges
        for result, _ in artifacts.frontend_pass(system.frontend)
        for sub, _ in result.leaves()
    )
    assert leaf_edges == sum(sg.num_edges for sg in graphs), ref
    for name, accesses in (
        ("hihgnn", trace_accesses),
        ("hihgnn+gdr", leaf_edges),
    ):
        report = get_platform_class(name)(CONTEXT).simulate(model, artifacts)
        na = report.stage_totals["na"]
        assert na.buffer_hits + na.buffer_misses == accesses, (ref, name)


def _capacities(artifact: TraceArtifact) -> list[int]:
    top = max(artifact.num_distinct, 1) + 1
    return sorted({1, 2, 3, max(1, top // 4), max(1, top // 2), top})


@settings(max_examples=30, deadline=None)
@given(
    ref=scenario_refs(),
    seed=st.integers(0, 50),
    split=st.floats(0.0, 1.0),
)
def test_lru_misses_never_grow_with_capacity(ref, seed, split):
    graphs = build_semantic_graphs(build_scenario(ref, seed=seed))
    empty = np.empty(0, dtype=np.int64)
    for sg in graphs:
        whole = sg.na_replay()
        cut = int(split * whole.n)
        head = TraceArtifact(whole.trace[:cut])
        tail = TraceArtifact(whole.trace[cut:])
        from_empty, carried = [], []
        for capacity in _capacities(whole):
            result = replay_lru(whole, capacity, empty)
            warm = replay_lru(head, capacity, empty)
            rest = replay_lru(tail, capacity, warm.new_state)
            # Carrying state through the split changes nothing.
            assert warm.misses + rest.misses == result.misses, ref
            from_empty.append(result.misses)
            carried.append(rest.misses)
        assert from_empty == sorted(from_empty, reverse=True), ref
        assert carried == sorted(carried, reverse=True), ref


@st.composite
def part_lists(draw) -> list[np.ndarray]:
    """Traces over a shared id universe: single parts, parts that
    repeat ids of earlier ones, parts without repeats, and parts of
    ids absent from every earlier part."""
    universe = draw(st.integers(1, 40))
    parts = []
    for k in range(draw(st.integers(1, 6))):
        ids = draw(st.lists(
            st.integers(0, universe - 1), max_size=30, unique=draw(st.booleans())
        ))
        if draw(st.booleans()):
            ids = [i + 1000 * (k + 1) for i in ids]
        parts.append(np.array(ids, dtype=np.int64))
    return parts


@settings(max_examples=300, deadline=None)
@given(parts=part_lists())
def test_composed_distances_equal_the_concatenation(parts):
    whole = TraceArtifact(np.concatenate(parts)).distances
    got = compose_distances([TraceArtifact(part) for part in parts])
    assert np.array_equal(got, whole)
