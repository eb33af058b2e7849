"""Deterministic memory gate: the bytes a built dataset retains per edge.

tracemalloc counts every numpy allocation exactly, so the retained
bytes of one ``DatasetArtifacts.build`` divided by the directed edge
count is the same on any machine: a stable ratio CI can gate on, unlike
RSS. ``python -c "from tests.platforms.test_topology_memory import
retained_bytes_per_edge as f; print(f('dblp'))"`` prints it.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.platforms.base import DatasetArtifacts
from repro.scenarios.workloads import load_workload

#: dblp, seed 1, scale 1.0 retains 79.7 B per directed edge when each
#: relation's topology is held four times (the generator's reverse copy,
#: the SGB stage's copies, and a reverse sorting its own CSR and CSC)
#: and 44.3 B when it is held once; the bound sits between them.
MAX_BYTES_PER_EDGE = 60.0


def retained_bytes_per_edge(name: str, *, seed: int = 1, scale: float = 1.0) -> float:
    """Traced bytes still held after building ``name``'s artifacts, per edge.

    Counts the generated graph, its semantic graphs and every warmed
    cache, divided by the graph's directed edge count.
    """
    # Import and first-call costs must not count: warm them on a tiny build.
    DatasetArtifacts.build(load_workload(name, seed=seed, scale=0.01))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        artifacts = DatasetArtifacts.build(load_workload(name, seed=seed, scale=scale))
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return (after - before) / artifacts.graph.num_edges()


def test_dblp_holds_its_topology_once():
    per_edge = retained_bytes_per_edge("dblp")
    assert per_edge < MAX_BYTES_PER_EDGE, f"{per_edge:.1f} B per edge"
