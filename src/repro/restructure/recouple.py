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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.graph.csr import gather_rows
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


def _community_schedule_naive(sub: SemanticGraph, budget: int = 256) -> np.ndarray:
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
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    active = sub.active_dst()
    if not len(active):
        return active
    csr, csc = sub.csr, sub.csc
    dst_deg = sub.dst_degrees()
    visited_dst = np.zeros(sub.num_dst, dtype=bool)
    visited_src = np.zeros(sub.num_src, dtype=bool)
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
            for s in csc.neighbors(v).tolist():
                if visited_src[s]:
                    continue
                visited_src[s] = True
                sources_absorbed += 1
                for w in csr.neighbors(s).tolist():
                    if not visited_dst[w]:
                        visited_dst[w] = True
                        queue.append(w)
    return np.array(order, dtype=np.int64)


#: A pop whose source row is at least this long routes the walk to the
#: batched pass (one fat row already amortizes its numpy overhead).
_FAT_ROW = 96

#: A queue at least this long routes the walk to the batched pass (the
#: whole queue becomes one batch, so the stream is at least this big).
_BATCH_MIN = 32


def _capped_traverse(
    seed: int,
    csr,
    csc,
    visited_src: np.ndarray,
    visited_dst: np.ndarray,
    budget: int,
    order_parts: list[np.ndarray],
) -> None:
    """One seed's budget-capped community walk, exact naive semantics.

    The walk interleaves two phases over the naive FIFO queue.  Small
    communities run the scalar per-pop loop verbatim; the moment a pop
    fronts a fat source row or the queue itself grows long, the whole
    remaining queue is handed to a batched phase that processes it one
    *generation* per numpy pass (a generation = the queue's contents at
    a point in time; FIFO order means every generation pops contiguously
    and in enqueue order, so any such batch is a contiguous run of naive
    pops -- true breadth-first levels are just the special case).

    Per generation the batched phase:

    1. Emits the generation (each queued destination pops in order,
       whether or not it still expands).
    2. Ends the walk if the budget was already spent -- no pop
       enqueues, so draining the generation empties the queue.
    3. Concatenates the generation's source rows in pop order and keeps
       the first occurrence of each unvisited source -- exactly the
       scalar loop's visited check, where the earliest pop wins a
       shared source.
    4. Cuts expansion at the budget: a pop expands iff the sources
       absorbed before it are under budget, and per-pop counts are
       non-negative, so the expanding pops are a prefix of the
       generation (exclusive cumulative-sum cut); the crossing pop
       still absorbs its whole row, like the scalar loop, whose budget
       check sits before the row walk.
    5. Forms the next generation from the absorbed sources' destination
       rows, concatenated in absorption order with first-occurrence
       dedup against visited destinations (the scalar loop enqueues
       exactly that stream).  A small next generation goes back on the
       queue for the scalar phase instead.
    """
    csr_indptr, csr_indices = csr.indptr, csr.indices
    csc_indptr, csc_indices = csc.indptr, csc.indices
    visited_dst[seed] = True
    queue: deque[int] = deque([seed])
    scalar_order: list[int] = []
    absorbed = 0
    while queue:
        # Scalar phase: the naive loop, plus a hand-off check per pop.
        while queue:
            if absorbed >= budget:
                scalar_order.extend(queue)
                queue.clear()
                break
            v = queue[0]
            beg = csc_indptr[v]
            end = csc_indptr[v + 1]
            if end - beg >= _FAT_ROW or len(queue) >= _BATCH_MIN:
                break  # batch the whole remaining queue
            queue.popleft()
            scalar_order.append(v)
            for s in csc_indices[beg:end].tolist():
                if visited_src[s]:
                    continue
                visited_src[s] = True
                absorbed += 1
                for w in csr_indices[
                    csr_indptr[s] : csr_indptr[s + 1]
                ].tolist():
                    if not visited_dst[w]:
                        visited_dst[w] = True
                        queue.append(w)
        if not queue:
            break
        if scalar_order:
            order_parts.append(np.array(scalar_order, dtype=np.int64))
            scalar_order = []
        level = np.fromiter(queue, dtype=np.int64, count=len(queue))
        queue.clear()
        # Batched phase: one numpy pass per generation.
        while level.size:
            order_parts.append(level)
            if absorbed >= budget:
                break  # the generation just drained; nothing enqueued
            src_stream = gather_rows(csc, level)
            uniq, first = np.unique(src_stream, return_index=True)
            keep = np.sort(first[~visited_src[uniq]])
            if not keep.size:
                break  # no new sources, so no next generation
            lens = csc_indptr[level + 1] - csc_indptr[level]
            owner = np.repeat(np.arange(level.size, dtype=np.int64), lens)
            new_counts = np.bincount(owner[keep], minlength=level.size)
            before = absorbed + np.concatenate(([0], np.cumsum(new_counts)[:-1]))
            expanding = int(np.searchsorted(before, budget, side="left"))
            if expanding < level.size:
                keep = keep[owner[keep] < expanding]
            new_src = src_stream[keep]
            visited_src[new_src] = True
            absorbed += int(new_src.size)
            dst_stream = gather_rows(csr, new_src)
            if not dst_stream.size:
                break
            uniq, first = np.unique(dst_stream, return_index=True)
            nxt = dst_stream[np.sort(first[~visited_dst[uniq]])]
            if not nxt.size:
                break
            visited_dst[nxt] = True
            if nxt.size < _BATCH_MIN:
                queue.extend(nxt.tolist())
                break  # hand the small generation back to the scalar phase
            level = nxt
    if scalar_order:
        order_parts.append(np.array(scalar_order, dtype=np.int64))


def _community_schedule_vec(sub: SemanticGraph, budget: int = 256) -> np.ndarray:
    """Vectorized :func:`_community_schedule_naive`; identical output.

    Same seed-ordered sequence of breadth-first community walks; each
    walk runs through :func:`_capped_traverse`, which batches one
    whole breadth-first level per numpy pass and cuts the expansion
    budget with an exclusive cumulative sum over per-pop source
    counts, so no per-edge Python loop survives on this path.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    active = sub.active_dst()
    if not len(active):
        return active
    csr, csc = sub.csr, sub.csc
    dst_deg = sub.dst_degrees()
    seeds = active[np.argsort(-dst_deg[active], kind="stable")]

    visited_dst = np.zeros(sub.num_dst, dtype=bool)
    visited_src = np.zeros(sub.num_src, dtype=bool)
    order_parts: list[np.ndarray] = []
    for seed in seeds.tolist():
        if visited_dst[seed]:
            continue
        _capped_traverse(
            seed, csr, csc, visited_src, visited_dst, budget, order_parts
        )
    return np.concatenate(order_parts).astype(np.int64, copy=False)


def _community_schedule(
    sub: SemanticGraph, budget: int = 256, *, naive: bool = False
) -> np.ndarray:
    """Community destination schedule (vectorized by default).

    ``naive=True`` runs the original per-edge traversal; both paths are
    bit-identical (differential-tested across the scenario catalog).
    Small subgraphs route to the scalar traversal either way: below a
    few thousand edges the vectorized path's per-call setup (degree
    arrays, fat-row masks) costs more than the walk it saves.
    """
    if naive or sub.num_edges < 2048:
        return _community_schedule_naive(sub, budget)
    return _community_schedule_vec(sub, budget)


def recouple(
    graph: SemanticGraph,
    matching: MatchingResult,
    partition: BackbonePartition,
    *,
    community_budget: int = 256,
    naive: bool = False,
) -> RestructureResult:
    """Split ``graph`` into its three backbone subgraphs (Algorithm 2).

    Args:
        graph: the semantic graph being restructured.
        matching: the decoupling result (kept for reporting; the split
            itself only needs the partition).
        partition: a valid vertex-cover partition of ``graph``.
        community_budget: source cap per scheduled community (see
            :func:`_community_schedule`).
        naive: schedule communities with the original per-edge
            traversal instead of the vectorized engine (identical
            output, reference path).

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
        schedules.append(_community_schedule(sub, community_budget, naive=naive))

    result = RestructureResult(
        original=graph,
        matching=matching,
        partition=partition,
        subgraphs=subgraphs,
        dst_schedules=schedules,
    )
    return result
