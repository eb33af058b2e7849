"""Backbone selection: turning matching candidates into a vertex cover.

Decoupling (Algorithm 1) yields backbone *candidates* -- the matched
vertices. Recoupling begins by selecting the *graph backbone*: a vertex
group such that every edge of the semantic graph has at least one
endpoint inside it (a vertex cover). The backbone splits each side into
in/out parts, the paper's four classes:

- ``Src_in``  -- source vertices inside the backbone,
- ``Src_out`` -- source vertices outside the backbone,
- ``Dst_in``  -- destination vertices inside the backbone,
- ``Dst_out`` -- destination vertices outside the backbone.

Two selection strategies are provided:

- :func:`select_backbone_konig` (default) -- the minimum vertex cover
  from König's theorem (alternating-path reachability from unmatched
  sources). Guarantees the cover property on every graph, with
  ``|backbone| == |maximum matching|``.
- :func:`select_backbone_paper` -- a faithful rendering of the paper's
  Algorithm 2, which admits matched vertices into the backbone only
  when they touch an unmatched vertex on the other side. On graphs with
  a (near-)perfect matching this under-selects; a repair step promotes
  the source endpoint of any uncovered edge so the returned partition
  is always a valid cover (the deviation is documented in DESIGN.md).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import gather_rows, sorted_unique
from repro.graph.semantic import SemanticGraph
from repro.restructure.matching import MatchingResult

__all__ = [
    "BackbonePartition",
    "select_backbone",
    "select_backbone_konig",
    "select_backbone_paper",
]


@dataclass
class BackbonePartition:
    """The four-way vertex classification induced by a backbone.

    Attributes:
        src_in_mask: boolean mask over source vertices inside the
            backbone.
        dst_in_mask: boolean mask over destination vertices inside the
            backbone.
        strategy: name of the selection strategy that produced it.
    """

    src_in_mask: np.ndarray
    dst_in_mask: np.ndarray
    strategy: str = "konig"

    @property
    def src_in(self) -> np.ndarray:
        """Source vertices in the backbone, ascending ids."""
        return np.flatnonzero(self.src_in_mask)

    @property
    def src_out(self) -> np.ndarray:
        return np.flatnonzero(~self.src_in_mask)

    @property
    def dst_in(self) -> np.ndarray:
        """Destination vertices in the backbone, ascending ids."""
        return np.flatnonzero(self.dst_in_mask)

    @property
    def dst_out(self) -> np.ndarray:
        return np.flatnonzero(~self.dst_in_mask)

    @property
    def backbone_size(self) -> int:
        """Total vertices in the backbone."""
        return int(self.src_in_mask.sum() + self.dst_in_mask.sum())

    def is_vertex_cover(self, graph: SemanticGraph) -> bool:
        """Whether every edge touches the backbone (the key invariant)."""
        covered = self.src_in_mask[graph.src] | self.dst_in_mask[graph.dst]
        return bool(covered.all()) if len(covered) else True

    def classify_edges(self, graph: SemanticGraph) -> np.ndarray:
        """Per-edge subgraph label: 0 = Src_out->Dst_in, 1 = Src_in->Dst_in,
        2 = Src_in->Dst_out, -1 = uncovered (never with a valid cover)."""
        s_in = self.src_in_mask[graph.src]
        d_in = self.dst_in_mask[graph.dst]
        labels = np.full(graph.num_edges, -1, dtype=np.int64)
        labels[~s_in & d_in] = 0
        labels[s_in & d_in] = 1
        labels[s_in & ~d_in] = 2
        return labels


def select_backbone_konig(
    graph: SemanticGraph, matching: MatchingResult, *, naive: bool = False
) -> BackbonePartition:
    """Minimum vertex cover from a maximum matching (König's theorem).

    Let ``Z`` be the vertices reachable from unmatched sources along
    alternating paths (non-matching edge src->dst, matching edge
    dst->src). The minimum cover is ``(V_src \\ Z) | (V_dst & Z)``.

    ``naive=True`` runs the original per-edge BFS; the reachable set
    (and hence the cover) is identical either way.
    """
    csr = graph.csr
    indptr = csr.indptr
    match_src, match_dst = matching.match_src, matching.match_dst

    src_in_z = match_src < 0  # unmatched sources seed Z
    dst_in_z = np.zeros(graph.num_dst, dtype=bool)

    if naive:
        indices = csr.indices
        queue: deque[int] = deque(np.flatnonzero(src_in_z).tolist())
        while queue:
            u = queue.popleft()
            for pos in range(indptr[u], indptr[u + 1]):
                v = int(indices[pos])
                if dst_in_z[v]:
                    continue
                if match_src[u] == v:
                    continue  # only non-matching edges go src -> dst
                dst_in_z[v] = True
                w = int(match_dst[v])
                if w >= 0 and not src_in_z[w]:
                    src_in_z[w] = True
                    queue.append(w)
        return BackbonePartition(
            src_in_mask=~src_in_z, dst_in_mask=dst_in_z, strategy="konig"
        )

    # Reachability is a set computation, so whole frontiers expand at
    # once: non-matching edges cross src -> dst, matching edges return
    # dst -> src (each destination has at most one matched source, so
    # the next frontier needs no dedup).
    frontier = np.flatnonzero(src_in_z)
    while frontier.size:
        neighbors = gather_rows(csr, frontier)
        lens = indptr[frontier + 1] - indptr[frontier]
        along_matching = neighbors == np.repeat(match_src[frontier], lens)
        fresh = sorted_unique(neighbors[~along_matching & ~dst_in_z[neighbors]])
        if not fresh.size:
            break
        dst_in_z[fresh] = True
        back = match_dst[fresh]
        back = back[back >= 0]
        frontier = back[~src_in_z[back]]
        src_in_z[frontier] = True

    partition = BackbonePartition(
        src_in_mask=~src_in_z, dst_in_mask=dst_in_z, strategy="konig"
    )
    return partition


def select_backbone_paper(
    graph: SemanticGraph,
    matching: MatchingResult,
    *,
    repair: bool = True,
    naive: bool = False,
) -> BackbonePartition:
    """Algorithm 2's backbone selection, optionally repaired to a cover.

    Faithful part (lines 1-18): a matched source joins ``Src_in`` iff it
    has an unmatched destination neighbor (which joins ``Dst_out``); a
    matched destination joins ``Dst_in`` iff it has an unmatched source
    neighbor (which joins ``Src_out``); everything else is out.

    Repair (``repair=True``): any edge left with both endpoints outside
    the backbone has both endpoints matched (a consequence of matching
    maximality), so its source endpoint is promoted into ``Src_in``.

    ``naive=True`` runs the original per-vertex neighbor scans; the
    partition is identical either way.
    """
    src_matched = matching.match_src >= 0
    dst_matched = matching.match_dst >= 0

    src_in = np.zeros(graph.num_src, dtype=bool)
    dst_in = np.zeros(graph.num_dst, dtype=bool)
    if naive:
        csr, csc = graph.csr, graph.csc
        # Lines 3-9: matched sources with unmatched destination
        # neighbors.
        for u in np.flatnonzero(src_matched):
            neighbors = csr.neighbors(int(u))
            if len(neighbors) and not dst_matched[neighbors].all():
                src_in[u] = True
        # Lines 10-16: matched destinations with unmatched source
        # neighbors.
        for v in np.flatnonzero(dst_matched):
            neighbors = csc.neighbors(int(v))
            if len(neighbors) and not src_matched[neighbors].all():
                dst_in[v] = True
    elif graph.num_edges:
        # Lines 3-9 / 10-16, as one set computation per side: a
        # matched vertex joins the backbone iff any incident edge
        # reaches an unmatched vertex on the other side.
        src_in = src_matched & (
            np.bincount(
                graph.src[~dst_matched[graph.dst]], minlength=graph.num_src
            )
            > 0
        )
        dst_in = dst_matched & (
            np.bincount(
                graph.dst[~src_matched[graph.src]], minlength=graph.num_dst
            )
            > 0
        )

    if repair and graph.num_edges:
        uncovered = ~(src_in[graph.src] | dst_in[graph.dst])
        if uncovered.any():
            src_in[graph.src[uncovered]] = True

    return BackbonePartition(
        src_in_mask=src_in, dst_in_mask=dst_in, strategy="paper"
    )


_STRATEGIES = {
    "konig": select_backbone_konig,
    "paper": select_backbone_paper,
}


def select_backbone(
    graph: SemanticGraph,
    matching: MatchingResult,
    strategy: str = "konig",
    *,
    naive: bool = False,
) -> BackbonePartition:
    """Select the graph backbone with the named strategy.

    Every strategy accepts ``naive=True`` to run its scalar reference
    path; the returned partition is identical either way.
    """
    try:
        chooser = _STRATEGIES[strategy]
    except KeyError:
        known = ", ".join(sorted(_STRATEGIES))
        raise ValueError(
            f"unknown backbone strategy {strategy!r}; choose one of: {known}"
        ) from None
    return chooser(graph, matching, naive=naive)
