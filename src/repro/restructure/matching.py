"""Graph decoupling: maximum bipartite matching (Algorithm 1).

The paper's Decoupler implements an augmenting-path maximum-matching
search "inspired by the Hungarian Algorithm" using per-vertex FIFOs, a
hash table for FIFO allocation, and visited/matching bitmaps. Two
implementations live here:

- :func:`maximum_matching` -- a clean iterative Kuhn augmenting-path
  algorithm, used wherever only the *result* matters.
- :func:`maximum_matching_fifo` -- a faithful rendering of Algorithm 1's
  dataflow (search list, per-destination matching FIFOs) that also
  counts the hardware events (FIFO pushes/pops, hash lookups, bitmap
  probes) the :mod:`repro.frontend` Decoupler converts into cycles.

Both return identical matching *cardinality* on every graph (property
tested against :func:`repro.restructure.hopcroft_karp.hopcroft_karp`);
tie-breaking between equal-size matchings may differ.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.graph.semantic import SemanticGraph

__all__ = [
    "MatchingCounters",
    "MatchingResult",
    "maximum_matching",
    "maximum_matching_fifo",
]


@dataclass
class MatchingCounters:
    """Hardware-event counts of one decoupling pass.

    These are consumed by :class:`repro.frontend.decoupler.Decoupler`
    to derive cycle counts; the pure algorithm layer only accumulates
    them.
    """

    hash_lookups: int = 0
    fifo_pushes: int = 0
    fifo_pops: int = 0
    bitmap_reads: int = 0
    bitmap_writes: int = 0
    edges_scanned: int = 0
    augmenting_paths: int = 0
    search_steps: int = 0

    def merge(self, other: "MatchingCounters") -> None:
        """Accumulate another pass's counters into this one."""
        self.hash_lookups += other.hash_lookups
        self.fifo_pushes += other.fifo_pushes
        self.fifo_pops += other.fifo_pops
        self.bitmap_reads += other.bitmap_reads
        self.bitmap_writes += other.bitmap_writes
        self.edges_scanned += other.edges_scanned
        self.augmenting_paths += other.augmenting_paths
        self.search_steps += other.search_steps


@dataclass
class MatchingResult:
    """A bipartite matching of a semantic graph.

    Attributes:
        match_src: for each source vertex, the matched destination id or
            -1 when unmatched. (The paper's ``Match_Pair`` keyed by
            source.)
        match_dst: for each destination vertex, the matched source id or
            -1. (``Match_Pair`` keyed by destination.)
        counters: hardware-event counts accumulated while matching.
    """

    match_src: np.ndarray
    match_dst: np.ndarray
    counters: MatchingCounters = field(default_factory=MatchingCounters)

    @property
    def size(self) -> int:
        """Matching cardinality (number of matched pairs)."""
        return int((self.match_src >= 0).sum())

    def matched_src(self) -> np.ndarray:
        """Matched source vertex ids, ascending."""
        return np.flatnonzero(self.match_src >= 0)

    def matched_dst(self) -> np.ndarray:
        """Matched destination vertex ids, ascending."""
        return np.flatnonzero(self.match_dst >= 0)

    def pairs(self) -> list[tuple[int, int]]:
        """Matched ``(src, dst)`` pairs ordered by source id."""
        sources = self.matched_src()
        return [(int(u), int(self.match_src[u])) for u in sources]

    def is_valid_matching(self, graph: SemanticGraph) -> bool:
        """Whether every matched pair is an edge and pairing is mutual."""
        for u, v in self.pairs():
            if self.match_dst[v] != u:
                return False
            if not graph.csr.has_edge(u, v):
                return False
        return self.size == int((self.match_dst >= 0).sum())

    def is_maximal(self, graph: SemanticGraph) -> bool:
        """Whether no edge has both endpoints unmatched.

        Every maximum matching is maximal; this is the cheap necessary
        condition used by fast tests (maximum-ness is checked against
        Hopcroft-Karp).
        """
        src_unmatched = self.match_src < 0
        dst_unmatched = self.match_dst < 0
        both = src_unmatched[graph.src] & dst_unmatched[graph.dst]
        return not bool(both.any())


def _greedy_prematch(
    indptr: np.ndarray,
    indices: np.ndarray,
    match_src: np.ndarray,
    match_dst: np.ndarray,
    counters: MatchingCounters,
) -> None:
    """One-pass greedy matching: claim the first free neighbor.

    Standard Kuhn/Hopcroft-Karp initialization; in the Decoupler it is
    the first streaming pass of the edge list, during which most
    vertices find their final match and only the remainder needs
    augmenting-path searches.
    """
    num_src = len(match_src)
    for u in range(num_src):
        for pos in range(indptr[u], indptr[u + 1]):
            v = int(indices[pos])
            counters.edges_scanned += 1
            counters.bitmap_reads += 1
            if match_dst[v] < 0:
                match_src[u] = v
                match_dst[v] = u
                counters.bitmap_writes += 2
                break


def _swap_orientation(result: MatchingResult) -> MatchingResult:
    """A matching of the reversed graph, re-expressed for the original."""
    return MatchingResult(
        match_src=result.match_dst,
        match_dst=result.match_src,
        counters=result.counters,
    )


def _search_limit(graph: SemanticGraph) -> int:
    """Upper bound on matching size: the smaller active side."""
    return min(len(graph.active_src()), len(graph.active_dst()))


def maximum_matching(graph: SemanticGraph, *, greedy_init: bool = True) -> MatchingResult:
    """Maximum bipartite matching via iterative Kuhn augmentation.

    Scans source vertices in id order; for each unmatched source, runs
    a DFS over alternating paths and augments when an unmatched
    destination is reached. ``O(V * E)`` worst case, fast in practice on
    the sparse skewed graphs of this domain.

    Two standard optimizations (also applied by the Decoupler hardware,
    which choses its scan direction per graph): the search runs from
    the smaller side -- a matching is orientation-symmetric -- and
    terminates as soon as the smaller side is saturated.

    Args:
        graph: bipartite semantic graph.
        greedy_init: run the one-pass greedy pre-matching first (same
            result cardinality, far fewer augmenting searches).
    """
    if graph.num_dst < graph.num_src:
        graph.csc  # cached here, it becomes the reverse's CSR
        return _swap_orientation(
            maximum_matching(graph.reversed(), greedy_init=greedy_init)
        )
    csr = graph.csr
    match_src = np.full(graph.num_src, -1, dtype=np.int64)
    match_dst = np.full(graph.num_dst, -1, dtype=np.int64)
    counters = MatchingCounters()
    limit = _search_limit(graph)

    indptr, indices = csr.indptr, csr.indices
    if greedy_init:
        _greedy_prematch(indptr, indices, match_src, match_dst, counters)
    size = int((match_src >= 0).sum())

    for root in range(graph.num_src):
        if size >= limit:
            break
        if match_src[root] >= 0:
            continue
        counters.search_steps += 1
        # Iterative DFS over alternating paths. ``parent_dst[v]`` is the
        # source whose exploration first reached destination v.
        visited_dst = {}
        stack = [root]
        found = -1
        while stack and found < 0:
            u = stack.pop()
            for pos in range(indptr[u], indptr[u + 1]):
                v = int(indices[pos])
                counters.edges_scanned += 1
                if v in visited_dst:
                    continue
                visited_dst[v] = u
                counters.bitmap_reads += 1
                if match_dst[v] < 0:
                    found = v
                    break
                stack.append(int(match_dst[v]))

        if found < 0:
            continue
        # Walk back through parent pointers, flipping the path.
        counters.augmenting_paths += 1
        size += 1
        v = found
        while v >= 0:
            u = visited_dst[v]
            next_v = int(match_src[u])
            match_src[u] = v
            match_dst[v] = u
            counters.bitmap_writes += 2
            v = next_v

    return MatchingResult(match_src=match_src, match_dst=match_dst, counters=counters)


def maximum_matching_fifo(
    graph: SemanticGraph, *, greedy_init: bool = True
) -> MatchingResult:
    """Algorithm 1 of the paper: FIFO-based decoupling.

    Mirrors the hardware dataflow: a ``Search_List`` of source vertices
    to (re)place, per-destination ``Matching_FIFO`` queues holding
    sources that arrived at each destination, and visited/matching
    bitmaps. Each push/pop/lookup increments
    :class:`MatchingCounters`, which the Decoupler hardware model turns
    into cycles.

    Semantically this is breadth-first Kuhn augmentation: when a source
    vertex finds all its neighbors matched, the sources currently
    holding those destinations are pushed onto the search list to seek
    alternatives (lines 22-26 of Algorithm 1).

    Args:
        graph: bipartite semantic graph.
        greedy_init: stream the edge list once to pre-match greedily
            before the search phase (the Decoupler's first pass).
    """
    if graph.num_dst < graph.num_src:
        graph.csc  # cached here, it becomes the reverse's CSR
        return _swap_orientation(
            maximum_matching_fifo(graph.reversed(), greedy_init=greedy_init)
        )
    csr = graph.csr
    indptr, indices = csr.indptr, csr.indices
    match_src = np.full(graph.num_src, -1, dtype=np.int64)
    match_dst = np.full(graph.num_dst, -1, dtype=np.int64)
    counters = MatchingCounters()
    limit = _search_limit(graph)
    matching_fifo: list[deque[int]] = [deque() for _ in range(graph.num_dst)]

    if greedy_init:
        _greedy_prematch(indptr, indices, match_src, match_dst, counters)
    size = int((match_src >= 0).sum())

    for root in range(graph.num_src):
        counters.bitmap_reads += 1
        if size >= limit:
            break
        if match_src[root] >= 0:
            continue
        # Line 2: clear all Matching_FIFO state for a fresh search epoch.
        visited_dst = np.zeros(graph.num_dst, dtype=bool)
        parent_dst = np.full(graph.num_dst, -1, dtype=np.int64)
        search_list: deque[int] = deque([root])
        counters.fifo_pushes += 1
        augmented = False

        while search_list and not augmented:
            u = search_list.popleft()
            counters.fifo_pops += 1
            counters.search_steps += 1
            blocked_destinations: list[int] = []
            for pos in range(indptr[u], indptr[u + 1]):
                v = int(indices[pos])
                counters.edges_scanned += 1
                counters.bitmap_reads += 1
                if visited_dst[v]:
                    continue  # line 9-11
                visited_dst[v] = True
                parent_dst[v] = u
                counters.bitmap_writes += 1
                # Line 12: stage u in v's matching FIFO.
                matching_fifo[v].append(u)
                counters.fifo_pushes += 1
                counters.hash_lookups += 1
                if match_dst[v] < 0:
                    # Lines 13-19: v is free; flip the alternating path
                    # back to the root, freeing each previous match.
                    counters.augmenting_paths += 1
                    size += 1
                    w = v
                    while w >= 0:
                        holder = int(parent_dst[w])
                        next_w = int(match_src[holder])
                        if next_w >= 0:
                            # Pop the stale claim on holder's old dest
                            # (staged when holder was pushed this epoch).
                            matching_fifo[next_w].popleft()
                            counters.fifo_pops += 1
                        match_src[holder] = w
                        match_dst[w] = holder
                        counters.bitmap_writes += 2
                        w = next_w
                    augmented = True
                    break
                blocked_destinations.append(v)

            if not augmented:
                # Lines 22-26: all fresh neighbors are matched; push the
                # sources holding them to look for alternatives.
                for v in blocked_destinations:
                    holder = int(match_dst[v])
                    if holder >= 0:
                        search_list.append(holder)
                        counters.fifo_pushes += 1

    return MatchingResult(match_src=match_src, match_dst=match_dst, counters=counters)
