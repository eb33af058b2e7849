"""End-to-end graph restructuring (decouple -> select backbone -> recouple)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.graph.semantic import SemanticGraph
from repro.restructure.backbone import select_backbone
from repro.restructure.matching import (
    MatchingResult,
    maximum_matching,
    maximum_matching_fifo,
)
from repro.restructure.matching_vec import maximum_matching_vec
from repro.restructure.recouple import RestructureResult, recouple

__all__ = ["decouple", "restructure_tree", "GraphRestructurer"]

_MATCHERS = {
    "kuhn": maximum_matching,
    "fifo": maximum_matching_fifo,
    "fifo_vec": maximum_matching_vec,
}


def decouple(graph: SemanticGraph, method: str = "kuhn") -> MatchingResult:
    """Graph decoupling: find a maximum matching of the semantic graph.

    Args:
        graph: the bipartite semantic graph.
        method: ``"kuhn"`` (fast iterative augmentation), ``"fifo"``
            (the paper's Algorithm 1 dataflow with hardware-event
            counters) or ``"fifo_vec"`` (the batched engine with
            bit-identical matching and counters).
    """
    try:
        matcher = _MATCHERS[method]
    except KeyError:
        known = ", ".join(sorted(_MATCHERS))
        raise ValueError(
            f"unknown matching method {method!r}; choose one of: {known}"
        ) from None
    return matcher(graph)


def restructure_tree(
    graph: SemanticGraph,
    step: Callable[[SemanticGraph], RestructureResult],
    *,
    max_depth: int,
    min_edges: int,
) -> RestructureResult:
    """The one restructure recursion: ``step`` on ``graph``, then, up to
    ``max_depth`` levels down, on every subgraph of ``min_edges`` or more
    edges (in pre-order); smaller subgraphs get a ``None`` child."""
    result = step(graph)
    if max_depth > 0:
        result.children = [
            restructure_tree(
                sub, step, max_depth=max_depth - 1, min_edges=min_edges
            )
            if sub.num_edges >= min_edges
            else None
            for sub in result.subgraphs
        ]
    return result


@dataclass
class GraphRestructurer:
    """Configurable restructuring pipeline.

    The paper notes the method "can be applied to subgraphs to generate
    smaller sub-subgraphs, thereby exploiting data locality in a smaller
    on-chip buffer"; ``max_depth > 0`` enables that recursion.

    Attributes:
        matching_method: ``"kuhn"`` or ``"fifo"`` (see :func:`decouple`).
        backbone_strategy: ``"konig"`` (default, guaranteed vertex
            cover) or ``"paper"`` (Algorithm 2 with repair).
        max_depth: recursion depth; 0 restructures once.
        min_edges: subgraphs below this edge count are not recursed
            into (they already fit comfortably on chip).
        community_budget: source cap per scheduled community (bounds
            each community's buffer working set).
        validate: run :meth:`RestructureResult.validate` on every
            result (cheap insurance; disable for large benchmark runs).
    """

    matching_method: str = "kuhn"
    backbone_strategy: str = "konig"
    max_depth: int = 0
    min_edges: int = 64
    community_budget: int = 256
    validate: bool = True

    def restructure(self, graph: SemanticGraph) -> RestructureResult:
        """Restructure one semantic graph (recursing per configuration)."""
        return restructure_tree(
            graph, self._step, max_depth=self.max_depth, min_edges=self.min_edges
        )

    def _step(self, graph: SemanticGraph) -> RestructureResult:
        matching = decouple(graph, self.matching_method)
        partition = select_backbone(graph, matching, self.backbone_strategy)
        result = recouple(
            graph, matching, partition, community_budget=self.community_budget
        )
        if self.validate:
            result.validate()
        return result
