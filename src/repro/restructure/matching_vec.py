"""Vectorized rendering of Algorithm 1's FIFO decoupling dataflow.

:func:`maximum_matching_vec` reproduces
:func:`repro.restructure.matching.maximum_matching_fifo` *exactly* --
the same ``match_src``/``match_dst`` arrays and bit-identical
:class:`~repro.restructure.matching.MatchingCounters` (every FIFO
push/pop, bitmap read/write, hash lookup, edge scan, search step and
augmenting path). The greedy pass runs as batched numpy passes over
the CSR arrays; the search keeps the scalar loop and runs it on plain
lists. The scalar formulation stays
available as the ``naive=True`` reference of
:class:`repro.frontend.decoupler.Decoupler` and is differential-tested
against this engine across the scenario catalog.

Two phases mirror the scalar algorithm:

1.  **Greedy prematch** (the Decoupler's first streaming pass) is an
    inherently sequential first-free-neighbor scan: source ``u`` claims
    the first destination that is free *after* all sources ``< u``
    committed. The engine runs it as an optimistic parallel sweep with
    *stealing*: every source advances to its first contestable
    destination (unclaimed, or claimed by a larger source) and claims
    it; conflicting claims resolve to the smallest source and bump the
    previous holder back into the scan. Because a destination's
    claimant id only ever decreases, a source skips a destination only
    when its final claimant is smaller -- exactly the sequential
    semantics -- and each edge probe is counted once, when its outcome
    is decided, so ``edges_scanned``/``bitmap_reads`` match the scalar
    pass bit-for-bit.

2.  **FIFO search** (lines 2-26 of Algorithm 1) is the scalar loop of
    :func:`~repro.restructure.matching.maximum_matching_fifo`, pop for
    pop and counter for counter, run over plain Python lists:
    ``indptr``, both matching sides, the visited stamps and ``parent``
    become lists once per graph, and each adjacency row on its first
    pop. The searches are many and tiny (a few pops per root), where
    numpy's per-call overhead costs more than the work. Matching-FIFO
    contents are not kept: a flip pops the claim on a holder's old
    destination, which was staged when the holder was pushed in the
    same epoch, so that FIFO is never empty and every flip step with
    an old destination counts one pop. A graph whose greedy pass leaves
    no root to search, or already reaches the search limit, skips the
    list conversion.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.semantic import SemanticGraph
from repro.restructure.matching import (
    MatchingCounters,
    MatchingResult,
    _search_limit,
    _swap_orientation,
)

__all__ = ["maximum_matching_vec"]


def _greedy_prematch_vec(
    indptr: np.ndarray,
    indices: np.ndarray,
    match_src: np.ndarray,
    match_dst: np.ndarray,
    counters: MatchingCounters,
) -> None:
    """Optimistic-steal rendering of ``_greedy_prematch``.

    Per-destination claimants start at the ``sentinel`` (free) and only
    ever decrease; a bumped holder resumes scanning one past its stolen
    destination, exactly where the sequential scan would probe next.
    """
    num_src = match_src.shape[0]
    sentinel = num_src
    end = indptr[1:]
    ptr = indptr[:-1].astype(np.int64, copy=True)
    claimant = np.full(match_dst.shape[0], sentinel, dtype=np.int64)
    active = np.flatnonzero(ptr < end)
    scans = 0
    while active.size:
        # Advance every active source to its next contestable
        # destination (or exhaustion). Skipped destinations are held by
        # smaller sources, which is final, so each skip is one
        # sequential probe-and-reject.
        holds: list[np.ndarray] = []
        scanning = active
        while scanning.size:
            scanning = scanning[ptr[scanning] < end[scanning]]
            if not scanning.size:
                break
            dest = indices[ptr[scanning]]
            skip = claimant[dest] < scanning
            hold = scanning[~skip]
            if hold.size:
                holds.append(hold)
            scanning = scanning[skip]
            scans += scanning.size
            ptr[scanning] += 1
        if not holds:
            break
        cands = holds[0] if len(holds) == 1 else np.concatenate(holds)
        dest = indices[ptr[cands]]
        uniq, inverse = np.unique(dest, return_inverse=True)
        prev = claimant[uniq]
        np.minimum.at(claimant, dest, cands)
        new = claimant[uniq]
        # Win or lose, probing the contested destination is one scan.
        scans += cands.size
        losers = cands[cands != new[inverse]]
        bumped = prev[(prev != sentinel) & (new < prev)]
        requeue = np.concatenate([losers, bumped])
        ptr[requeue] += 1
        active = requeue
    counters.edges_scanned += int(scans)
    counters.bitmap_reads += int(scans)
    matched = np.flatnonzero(claimant != sentinel)
    match_dst[matched] = claimant[matched]
    match_src[claimant[matched]] = matched
    counters.bitmap_writes += 2 * int(matched.size)


def _fifo_search(
    indptr: np.ndarray,
    indices: np.ndarray,
    match_src: np.ndarray,
    match_dst: np.ndarray,
    roots: list[int],
    size: int,
    limit: int,
    counters: MatchingCounters,
) -> tuple[int, int]:
    """Lines 2-26 of Algorithm 1 for every root in ``roots``, in order.

    Updates the matching in place and returns the scalar root loop's
    bitmap position (one past the last searched root) and the new
    matching size. The loop stops once ``size`` reaches ``limit``. Each
    root's epoch bumps ``stamp``: ``visited[v] == stamp`` replaces the
    scalar code's freshly zeroed visited bitmap, and ``parent`` entries
    are only read for destinations stamped in the current epoch.

    A source's adjacency row becomes a list on its first pop: a few
    hundred searches over a graph of ~100k edges touch a small share
    of the rows, and converting all of ``indices`` would cost more
    than the searches. Only flipped entries are written back.
    """
    ptr = indptr.tolist()
    msrc = match_src.tolist()
    mdst = match_dst.tolist()
    rows: list[list[int] | None] = [None] * len(msrc)
    num_dst = len(mdst)
    visited = [0] * num_dst
    parent = [0] * num_dst
    reads = pushes = pops = steps = staged = scanned = paths = 0
    flipped: list[int] = []
    position = 0
    stamp = 0
    for root in roots:
        if size >= limit:
            break
        reads += root - position + 1
        position = root + 1
        stamp += 1
        search_list = deque([root])
        pushes += 1
        free_dst = -1
        while search_list:
            u = search_list.popleft()
            pops += 1
            steps += 1
            blocked = []
            row = rows[u]
            if row is None:
                row = rows[u] = indices[ptr[u] : ptr[u + 1]].tolist()
            for v in row:
                scanned += 1
                if visited[v] == stamp:
                    continue
                visited[v] = stamp
                parent[v] = u
                staged += 1
                pushes += 1
                if mdst[v] < 0:
                    free_dst = v
                    break
                blocked.append(v)
            if free_dst >= 0:
                break
            for v in blocked:
                holder = mdst[v]
                if holder >= 0:
                    search_list.append(holder)
                    pushes += 1
        if free_dst < 0:
            continue
        # Lines 13-19: flip the alternating path back to the root,
        # popping the stale claim on each holder's old destination
        # (staged when the holder was pushed, so always there).
        paths += 1
        size += 1
        w = free_dst
        while w >= 0:
            holder = parent[w]
            next_w = msrc[holder]
            if next_w >= 0:
                pops += 1
            msrc[holder] = w
            mdst[w] = holder
            flipped.append(w)
            w = next_w
    if flipped:
        holders = [mdst[w] for w in flipped]
        match_dst[flipped] = holders
        match_src[holders] = [msrc[u] for u in holders]
    counters.bitmap_reads += reads + scanned
    counters.bitmap_writes += staged + 2 * len(flipped)
    counters.hash_lookups += staged
    counters.fifo_pushes += pushes
    counters.fifo_pops += pops
    counters.search_steps += steps
    counters.edges_scanned += scanned
    counters.augmenting_paths += paths
    return position, size


def maximum_matching_vec(
    graph: SemanticGraph, *, greedy_init: bool = True
) -> MatchingResult:
    """Algorithm 1 of the paper, fast: FIFO-based decoupling.

    Drop-in replacement for
    :func:`repro.restructure.matching.maximum_matching_fifo` -- same
    matching arrays, same counters, same scan-direction choice -- with
    the greedy pass batched in numpy and the search run on plain lists.

    Args:
        graph: bipartite semantic graph.
        greedy_init: stream the edge list once to pre-match greedily
            before the search phase (the Decoupler's first pass).
    """
    if graph.num_dst < graph.num_src:
        graph.csc  # cached here, it becomes the reverse's CSR
        return _swap_orientation(
            maximum_matching_vec(graph.reversed(), greedy_init=greedy_init)
        )
    csr = graph.csr
    indptr, indices = csr.indptr, csr.indices
    match_src = np.full(graph.num_src, -1, dtype=np.int64)
    match_dst = np.full(graph.num_dst, -1, dtype=np.int64)
    counters = MatchingCounters()
    limit = _search_limit(graph)
    if greedy_init:
        _greedy_prematch_vec(indptr, indices, match_src, match_dst, counters)
    size = int((match_src >= 0).sum())
    roots = np.flatnonzero(match_src < 0)

    # The scalar root loop reads one bitmap entry per iterated root and
    # breaks once the smaller side saturates; matched roots between two
    # searches are skipped in bulk (augmenting never matches a source
    # other than its root, so the unmatched set is static).
    position = 0
    if roots.size and size < limit:
        position, size = _fifo_search(
            indptr, indices, match_src, match_dst, roots.tolist(), size,
            limit, counters,
        )
    if size >= limit:
        if position < graph.num_src:
            counters.bitmap_reads += 1
    else:
        counters.bitmap_reads += graph.num_src - position

    return MatchingResult(match_src=match_src, match_dst=match_dst, counters=counters)
