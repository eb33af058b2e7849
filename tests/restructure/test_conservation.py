"""Conservation invariants of recursive restructuring.

Across the scenario catalog and ``max_depth`` 0-2, the one restructure
recursion must neither drop nor duplicate an edge -- the leaves the
accelerator consumes partition the original edge multiset exactly --
and a recursive :class:`FrontendReport` must be the field-wise sum of
the Decoupler/Recoupler reports of every tree node.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.decoupler import Decoupler
from repro.frontend.gdr import GDRFrontend
from repro.frontend.recoupler import Recoupler
from repro.graph.semantic import build_semantic_graphs
from repro.restructure.restructure import GraphRestructurer
from repro.scenarios import build_scenario
from tests.strategies import scenario_refs


def _edge_codes(graph) -> np.ndarray:
    return np.sort(graph.src * graph.num_dst + graph.dst)


def _tree(result):
    """Every node of a restructure tree, in pre-order."""
    yield result
    for child in result.children:
        if child is not None:
            yield from _tree(child)


def _sum(reports) -> dict:
    rows = [dataclasses.asdict(r) for r in reports]
    return {key: sum(row[key] for row in rows) for key in rows[0]}


@settings(max_examples=40, deadline=None)
@given(
    ref=scenario_refs(),
    seed=st.integers(0, 50),
    max_depth=st.integers(0, 2),
    min_edges=st.sampled_from((1, 8, 32)),
)
def test_leaves_partition_edges_and_reports_sum(ref, seed, max_depth, min_edges):
    frontend = GDRFrontend(max_depth=max_depth, min_edges=min_edges)
    restructurer = GraphRestructurer(
        matching_method="fifo_vec", max_depth=max_depth, min_edges=min_edges
    )
    for sg in build_semantic_graphs(build_scenario(ref, seed=seed)):
        result, report = frontend.restructure(sg)
        for root in (result, restructurer.restructure(sg)):
            leaves = root.leaves()
            codes = [np.empty(0, np.int64)]
            codes += [_edge_codes(sub) for sub, _ in leaves]
            merged = np.sort(np.concatenate(codes))
            assert np.array_equal(merged, _edge_codes(sg)), ref

        decoupled, recoupled = [], []
        for node in _tree(result):
            matching, dec = Decoupler().run(node.original)
            _, rec = Recoupler().run(node.original, matching)
            decoupled.append(dec)
            recoupled.append(rec)
        assert dataclasses.asdict(report.decoupler) == _sum(decoupled), ref
        assert dataclasses.asdict(report.recoupler) == _sum(recoupled), ref
        if max_depth == 0:
            assert not result.children
