"""Graph recoupling: rebuilding the semantic graph as three subgraphs.

Given the backbone partition, every edge falls into exactly one of
three subgraphs (no edge can connect ``Src_out`` to ``Dst_out`` --
that is the vertex-cover property):

====  ======================  =========================================
idx   edge class              community structure
====  ======================  =========================================
0     ``Src_out -> Dst_in``   fan-in communities around backbone dsts
1     ``Src_in  -> Dst_in``   dense backbone core
2     ``Src_in  -> Dst_out``  fan-out communities around backbone srcs
====  ======================  =========================================

Each subgraph additionally gets a *destination schedule*: an order of
destination vertices that keeps consecutive aggregations inside one
backbone community, which is what actually shrinks reuse distance in
the accelerator's NA buffer.

The schedule has one implementation, the scalar walk
:func:`_community_schedule`, and no separate reference:
``tests/restructure/test_schedule_digests.py`` pins its output across
commits. The backbone it walks has a vectorized default and a
``naive=True`` reference in
:func:`repro.restructure.backbone.select_backbone`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.graph.semantic import SemanticGraph
from repro.memory.replay import TraceArtifact
from repro.restructure.backbone import BackbonePartition
from repro.restructure.matching import MatchingResult

__all__ = ["RestructureResult", "recouple", "SUBGRAPH_LABELS"]

SUBGRAPH_LABELS = ("src_out->dst_in", "src_in->dst_in", "src_in->dst_out")


@dataclass
class RestructureResult:
    """Output of one decouple + recouple pass over a semantic graph.

    Attributes:
        original: the input semantic graph.
        matching: the maximum matching found by decoupling.
        partition: the backbone partition chosen by recoupling.
        subgraphs: the three subgraphs ``G_Ps1..G_Ps3`` (edge-disjoint,
            ids preserved; some may be empty).
        dst_schedules: per subgraph, the order in which destination
            vertices should be aggregated for best locality.
        children: populated when restructuring recurses into subgraphs
            (``None`` entry when a subgraph was too small to recurse).
        leaf_replays: NA replay artifacts of :meth:`leaves`, aligned
            with it. The GDR frontend pass fills them once for every
            model (:meth:`repro.frontend.gdr.GDRFrontend.run_pass`);
            empty means each run builds its own.
    """

    original: SemanticGraph
    matching: MatchingResult
    partition: BackbonePartition
    subgraphs: list[SemanticGraph]
    dst_schedules: list[np.ndarray]
    children: list["RestructureResult | None"] = field(default_factory=list)
    leaf_replays: list[TraceArtifact] = field(
        default_factory=list, repr=False, compare=False
    )

    @property
    def labels(self) -> tuple[str, ...]:
        return SUBGRAPH_LABELS

    @property
    def backbone_size(self) -> int:
        return self.partition.backbone_size

    def total_subgraph_edges(self) -> int:
        return sum(sg.num_edges for sg in self.subgraphs)

    def leaves(self) -> list[tuple[SemanticGraph, np.ndarray]]:
        """``(subgraph, dst_schedule)`` pairs in execution order.

        Recursed subgraphs are replaced by their own leaves, giving the
        flat sequence the accelerator consumes.
        """
        out: list[tuple[SemanticGraph, np.ndarray]] = []
        kids = self.children or [None] * len(self.subgraphs)
        for sub, schedule, child in zip(self.subgraphs, self.dst_schedules, kids):
            if child is not None:
                out.extend(child.leaves())
            elif sub.num_edges:
                out.append((sub, schedule))
        return out

    def validate(self) -> None:
        """Raise ``AssertionError`` unless all structural invariants hold.

        Checked invariants: the partition is a vertex cover; the three
        subgraphs partition the edge set exactly; every schedule is a
        permutation of its subgraph's active destinations.
        """
        assert self.partition.is_vertex_cover(self.original), "backbone not a cover"
        total = self.total_subgraph_edges()
        assert total == self.original.num_edges, (
            f"subgraphs carry {total} edges, original has {self.original.num_edges}"
        )
        seen: set[tuple[int, int]] = set()
        for sub in self.subgraphs:
            edges = sub.edge_set()
            assert not (edges & seen), "subgraphs share an edge"
            seen |= edges
        assert seen == self.original.edge_set(), "edge sets differ"
        for sub, schedule in zip(self.subgraphs, self.dst_schedules):
            active = set(sub.active_dst().tolist())
            assert set(schedule.tolist()) == active, "schedule misses destinations"
            assert len(schedule) == len(active), "schedule repeats destinations"


def _community_schedule(sub: SemanticGraph, budget: int = 256) -> np.ndarray:
    """Destination order visiting one backbone community at a time.

    Breadth-first traversal over the subgraph: from a seed destination,
    absorb its source neighborhood, then every destination reachable
    through those sources, and so on; then reseed at the unvisited
    destination of highest degree. Within a community, consecutive
    destinations share most of their sources, so the buffer working set
    stays one community wide -- the "robust community structure" the
    paper's recoupling produces.

    ``budget`` caps the distinct sources one community may absorb
    before expansion stops (already-queued destinations still drain).
    Without the cap, sparse cross-community edges chain every community
    into one giant traversal and the locality evaporates; with it, each
    community's working set is bounded regardless of graph size.

    In hardware this order falls out of the Recoupler's FIFOs: the
    Backbone Searcher emits each backbone vertex's neighborhood
    together, and the Graph Generator preserves that grouping; the
    budget corresponds to the Recoupler FIFO depth.

    Adjacency and the visited flags are plain lists, converted once per
    call: per pop, slicing a numpy row and converting it costs more
    than walking the row itself.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    active = sub.active_dst()
    if not len(active):
        return active
    csr, csc = sub.csr, sub.csc
    csr_indptr, csr_indices = csr.indptr.tolist(), csr.indices.tolist()
    csc_indptr, csc_indices = csc.indptr.tolist(), csc.indices.tolist()
    dst_deg = sub.dst_degrees()
    visited_dst = [False] * sub.num_dst
    visited_src = [False] * sub.num_src
    order: list[int] = []
    seeds = active[np.argsort(-dst_deg[active], kind="stable")]
    queue: deque[int] = deque()
    for seed in seeds.tolist():
        if visited_dst[seed]:
            continue
        visited_dst[seed] = True
        queue.append(seed)
        sources_absorbed = 0
        while queue:
            v = queue.popleft()
            order.append(v)
            if sources_absorbed >= budget:
                continue  # drain without growing this community
            for s in csc_indices[csc_indptr[v] : csc_indptr[v + 1]]:
                if visited_src[s]:
                    continue
                visited_src[s] = True
                sources_absorbed += 1
                for w in csr_indices[csr_indptr[s] : csr_indptr[s + 1]]:
                    if not visited_dst[w]:
                        visited_dst[w] = True
                        queue.append(w)
    return np.array(order, dtype=np.int64)


def recouple(
    graph: SemanticGraph,
    matching: MatchingResult,
    partition: BackbonePartition,
    *,
    community_budget: int = 256,
) -> RestructureResult:
    """Split ``graph`` into its three backbone subgraphs (Algorithm 2).

    Args:
        graph: the semantic graph being restructured.
        matching: the decoupling result (kept for reporting; the split
            itself only needs the partition).
        partition: a valid vertex-cover partition of ``graph``.
        community_budget: source cap per scheduled community (see
            :func:`_community_schedule`).

    Returns:
        A validated :class:`RestructureResult`.

    Raises:
        ValueError: if ``partition`` is not a vertex cover of ``graph``
            (recoupling is undefined on uncovered edges).
    """
    if not partition.is_vertex_cover(graph):
        raise ValueError(
            "partition is not a vertex cover; recoupling requires every "
            "edge to touch the backbone"
        )
    labels = partition.classify_edges(graph)
    subgraphs: list[SemanticGraph] = []
    schedules: list[np.ndarray] = []
    for idx in range(3):
        sub = graph.edge_subgraph(labels == idx)
        subgraphs.append(sub)
        schedules.append(_community_schedule(sub, community_budget))

    result = RestructureResult(
        original=graph,
        matching=matching,
        partition=partition,
        subgraphs=subgraphs,
        dst_schedules=schedules,
    )
    return result
