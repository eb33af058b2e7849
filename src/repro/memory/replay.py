"""Vectorized trace-replay engines for the LRU buffer/cache models.

Every simulator in this reproduction funnels per-edge feature-access
traces through LRU structures (the NA :class:`FeatureBuffer`, the GPU
L2 :class:`SetAssociativeCache`, the Decoupler's FIFO hash table). The
seed implementation walked those traces one element at a time in
Python, which dominated the wall clock of the whole evaluation suite.

This module replays a whole trace at once in NumPy, following the
produce-once / replay-many split: traces are produced by the graph
layer (:func:`repro.accelerator.stages.gather_in_neighbors`), distilled
into a :class:`TraceArtifact`, and then replayed by any number of
interchangeable engines (different capacities, carried buffer states,
platforms) without re-walking the trace.

The core observation is Mattson's stack-algorithm property: an LRU
access hits if and only if the number of *distinct* ids referenced
since the previous occurrence of the same id is smaller than the
capacity. That distinct count (the stack / reuse distance) is a pure
function of the trace, independent of capacity and of any state carried
into the replay, so it is computed once per trace and cached.

Writing ``p = prev[i]`` for the previous occurrence of ``trace[i]``,
the distance is ``d(i) = #{j in (p, i) : prev[j] <= p}`` (each distinct
id in the window is counted at its first occurrence inside the window).
Splitting the count at ``p`` and using ``prev[j] < j`` gives
``d(i) = c(i) - (p + 1)`` with ``c(i) = #{j < i : prev[j] <= prev[i]}``
-- a dominance count solved by :func:`count_leq_before` in
``O(n log n)`` with a top-down radix partition (a wavelet-tree style
sweep over position bits) built from a single ``np.sort``.

Distances also compose. A HiHGNN lane's NA buffer is one LRU from flush
to flush over several leaf traces (a *segment*), and
:func:`compose_distances` builds the segment's distances from the
leaves' artifacts and one reduced trace of about half the accesses,
without re-sorting the segment. Where state must be carried between
calls instead (the GPU L2, which never flushes), :func:`replay_lru`
takes the resident ids and ranks the carried ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "count_leq_before",
    "TraceArtifact",
    "compose_distances",
    "ReplayResult",
    "replay_lru",
]

_COLD = np.iinfo(np.int32).max
# Block size below which the bit-partition switches to a 64-lane
# popcount sweep (one uint64 occupancy word per block).
_BASE = 64

if hasattr(np, "bitwise_count"):
    _popcount64 = np.bitwise_count
else:  # NumPy < 2.0: SWAR popcount on uint64

    def _popcount64(x: np.ndarray) -> np.ndarray:
        x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
        x = (x & np.uint64(0x3333333333333333)) + (
            (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
        )
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


def count_leq_before(keys: np.ndarray) -> np.ndarray:
    """For each position ``i`` count ``j < i`` with ``keys[j] <= keys[i]``.

    The dominance count behind every stack-distance computation here.
    Runs in ``O(n log n)``: one ``np.sort`` of ``key * P + position``
    packs order and identity into one int64, then a top-down sweep
    splits position blocks in half, counting for every element of a
    right half how many left-half elements precede it in key order.
    Each level costs a handful of sequential passes (no per-level sort).

    Args:
        keys: integer keys; ``max(keys) * padded_length`` must fit in
            int64 (callers pass small composite keys, never addresses).

    Returns:
        int64 array of per-position counts.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    n = keys.shape[0]
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    P = max(_BASE, 1 << (n - 1).bit_length())
    if keys.max() > (np.iinfo(np.int64).max >> (P.bit_length())):
        raise ValueError("keys too large to pack; compact them first")
    packed = keys * P + np.arange(n, dtype=np.int64)
    sp = np.sort(packed)
    # Elements in key order; the padding slots act as +inf keys and can
    # never be counted for a real element (their positions are larger
    # than every real position, so they never land in a left half
    # relative to a real element).
    sorted_pos = np.empty(P, dtype=np.int32)
    sorted_pos[:n] = (sp & (P - 1)).astype(np.int32)
    sorted_pos[n:] = np.arange(n, P, dtype=np.int32)
    acc = np.zeros(P, dtype=np.int32)

    B = P
    while B > _BASE:
        half = B >> 1
        nb = P // B
        m = (sorted_pos & half) != 0
        rs = np.flatnonzero(m)
        ls = np.flatnonzero(~m)
        # Every B-sized position block holds exactly B/2 right-half
        # members, so per-block ranks fall out of the flat index.
        lefts_before = (rs & (B - 1)).astype(np.int32) - (
            np.arange(P >> 1, dtype=np.int32) & (half - 1)
        )
        new_pos = np.empty(P, dtype=np.int32)
        v = new_pos.reshape(nb, B)
        v[:, :half] = sorted_pos[ls].reshape(nb, half)
        v[:, half:] = sorted_pos[rs].reshape(nb, half)
        new_acc = np.empty(P, dtype=np.int32)
        a = new_acc.reshape(nb, B)
        a[:, :half] = acc[ls].reshape(nb, half)
        a[:, half:] = (acc[rs] + lefts_before).reshape(nb, half)
        sorted_pos = new_pos
        acc = new_acc
        B = half

    # Base case: within each 64-position block, walk elements in key
    # order keeping a per-block uint64 occupancy word; the popcount of
    # the bits below an element's in-block position counts exactly the
    # earlier positions with keys sorted before it.
    nb = P // _BASE
    pos2 = sorted_pos.reshape(nb, _BASE)
    acc2 = acc.reshape(nb, _BASE)
    seen = np.zeros(nb, dtype=np.uint64)
    one = np.uint64(1)
    for k in range(_BASE):
        inblk = (pos2[:, k] & np.int32(_BASE - 1)).astype(np.uint64)
        bit = np.left_shift(one, inblk)
        acc2[:, k] += _popcount64(seen & (bit - one)).astype(np.int32)
        seen |= bit

    counts = np.empty(n, dtype=np.int64)
    real = sorted_pos < n
    counts[sorted_pos[real]] = acc[real]
    return counts


class TraceArtifact:
    """Capacity-independent replay precomputation for one access trace.

    Holds previous-occurrence links, first/last-occurrence positions,
    compacted id indices, and (lazily) the LRU stack distances. The
    trace is pure topology, so one artifact serves every capacity and
    every HGNN model. Who builds which:

    - :meth:`DatasetArtifacts.build <repro.platforms.base.DatasetArtifacts.build>`
      builds one per semantic graph (:meth:`SemanticGraph.na_replay`),
      distances included, before any cell runs. Each GPU's L2 pass
      replays it; pool workers adopt it through shared memory
      (:meth:`from_parts`).
    - :meth:`GDRFrontend.run_pass <repro.frontend.gdr.GDRFrontend.run_pass>`
      builds one per restructured leaf, in its schedule order,
      distances included, once per frontend pass.
    - HiHGNN cells build none: each NA lane segment's distances are
      composed from these (:func:`compose_distances`) and memoized per
      dataset, a one-leaf segment reusing its leaf's own.
    - Anything else (the ``restructurer=`` ablation's leaves, ad-hoc
      traces) is built per call by the simulator, the NA stage or
      :meth:`FeatureBuffer.access_many`.
    """

    def __init__(self, trace: np.ndarray) -> None:
        trace = np.ascontiguousarray(trace, dtype=np.int64)
        self.trace = trace
        n = trace.shape[0]
        self.n = n
        self._distances: np.ndarray | None = None
        if n == 0:
            self.prev = np.empty(0, dtype=np.int32)
            self.first_pos = np.empty(0, dtype=np.int64)
            self.last_pos = np.empty(0, dtype=np.int64)
            self.id_index = np.empty(0, dtype=np.int32)
            self.uniq_sorted = np.empty(0, dtype=np.int64)
            return
        pos_sorted, val_sorted, same, self.prev = _links(trace)
        is_first = np.concatenate(([True], ~same))
        is_last = np.concatenate((~same, [True]))
        self.first_pos = np.sort(pos_sorted[is_first])
        self.last_pos = np.sort(pos_sorted[is_last])
        self.uniq_sorted = val_sorted[is_first]
        gid = np.cumsum(is_first, dtype=np.int32) - np.int32(1)
        id_index = np.empty(n, dtype=np.int32)
        id_index[pos_sorted] = gid
        self.id_index = id_index

    @classmethod
    def from_parts(
        cls,
        trace: np.ndarray,
        *,
        prev: np.ndarray,
        first_pos: np.ndarray,
        last_pos: np.ndarray,
        uniq_sorted: np.ndarray,
        id_index: np.ndarray,
        distances: np.ndarray | None = None,
    ) -> "TraceArtifact":
        """Adopt precomputed replay arrays without recomputing them.

        Zero-copy counterpart of ``__init__`` for artifacts published
        through shared memory (:mod:`repro.platforms.shm`): attaching
        workers pay no sort and no dominance count — the arrays are
        the very ones the parent computed once.
        """
        artifact = cls.__new__(cls)
        artifact.trace = trace
        artifact.n = trace.shape[0]
        artifact.prev = prev
        artifact.first_pos = first_pos
        artifact.last_pos = last_pos
        artifact.uniq_sorted = uniq_sorted
        artifact.id_index = id_index
        artifact._distances = distances
        return artifact

    @property
    def num_distinct(self) -> int:
        return len(self.uniq_sorted)

    @property
    def distances(self) -> np.ndarray:
        """LRU stack distance per access (cold accesses get a sentinel).

        Computed on first use; consumers whose capacity covers the
        whole id universe never pay for it.
        """
        if self._distances is None:
            self._distances = _distances(self.prev)
        return self._distances


def _links(
    trace: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Positions sorted by ``(id, position)`` and previous-occurrence links.

    Returns ``(pos_sorted, val_sorted, same, prev)``: ``same[k]`` tells
    whether sorted slots ``k`` and ``k + 1`` hold the same id.
    """
    n = trace.shape[0]
    P = 1 << (n - 1).bit_length() if n > 1 else 1
    if trace.max(initial=0) > (np.iinfo(np.int64).max >> P.bit_length()):
        raise ValueError("trace ids too large to pack")
    sp = np.sort(trace * P + np.arange(n, dtype=np.int64))
    pos_sorted = sp & (P - 1)
    val_sorted = sp // P
    same = val_sorted[1:] == val_sorted[:-1]
    prev = np.full(n, -1, dtype=np.int32)
    prev[pos_sorted[1:][same]] = pos_sorted[:-1][same]
    return pos_sorted, val_sorted, same, prev


def _distances(prev: np.ndarray) -> np.ndarray:
    """Stack distances from previous-occurrence links (see module doc)."""
    p1 = prev.astype(np.int64) + 1
    d = (count_leq_before(p1) - p1).astype(np.int32)
    d[prev < 0] = _COLD
    return d


def compose_distances(parts: list[TraceArtifact]) -> np.ndarray:
    """Stack distances of the concatenated traces of ``parts``.

    Equal to ``TraceArtifact(np.concatenate(traces)).distances`` but
    built from the parts' own artifacts:

    - An access whose previous occurrence lies in its own part keeps
      the part's distance: its whole window lies inside the part.
    - A part's first occurrences take their distance from one reduced
      trace. Per part it holds the distinct ids in first-occurrence
      order, then in last-occurrence order. The window of a first
      occurrence in part ``m`` whose id was last seen in part ``j``
      holds the ids last seen in ``j`` after it, every id of the
      parts in between, and the ids first seen in ``m`` before it;
      the reduced trace has exactly those between the two copies.

    The first part's first-occurrence block and the last part's
    last-occurrence block fall in no such window, so they are left out.
    """
    parts = [p for p in parts if p.n]
    if not parts:
        return np.empty(0, dtype=np.int32)
    if len(parts) == 1:
        return parts[0].distances
    pieces = [parts[0].trace[parts[0].last_pos]]
    for p in parts[1:-1]:
        pieces += [p.trace[p.first_pos], p.trace[p.last_pos]]
    pieces.append(parts[-1].trace[parts[-1].first_pos])
    reduced = _distances(_links(np.concatenate(pieces))[3])
    out = np.concatenate([p.distances for p in parts])
    offset = parts[0].n
    r = parts[0].num_distinct
    for p in parts[1:]:
        out[offset + p.first_pos] = reduced[r : r + p.num_distinct]
        offset += p.n
        r += 2 * p.num_distinct
    return out


@dataclass
class ReplayResult:
    """Outcome of replaying one trace through an LRU of given capacity."""

    hit_mask: np.ndarray
    misses: int
    evictions: int
    new_state: np.ndarray  # resident ids, LRU -> MRU
    fetch_ids: np.ndarray  # distinct ids (ascending) ...
    fetch_counts: np.ndarray  # ... with their DRAM fetch counts

    @property
    def hits(self) -> int:
        return len(self.hit_mask) - self.misses


def _pack_sort_state(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort carried-state ids, keeping their LRU-list indices."""
    r = state.shape[0]
    K = 1 << (r - 1).bit_length() if r > 1 else 1
    ss = np.sort(state * K + np.arange(r, dtype=np.int64))
    return ss // K, ss & (K - 1)


def replay_lru(
    artifact: TraceArtifact, capacity: int, state: np.ndarray
) -> ReplayResult:
    """Replay an artifact's trace through an LRU with carried state.

    Exactly reproduces the element-at-a-time LRU: same hits, misses,
    evictions, fetch counts, and resulting residency order.

    Args:
        artifact: precomputed trace artifact.
        capacity: LRU capacity in entries.
        state: ids resident before the first access, LRU -> MRU. Must
            have at most ``capacity`` entries.

    Returns:
        A :class:`ReplayResult`; ``new_state`` is the residency after
        the last access (LRU -> MRU).
    """
    trace = artifact.trace
    n = artifact.n
    state = np.ascontiguousarray(state, dtype=np.int64)
    R = state.shape[0]
    if n == 0:
        return ReplayResult(
            np.zeros(0, dtype=bool), 0, 0, state,
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
        )

    U = artifact.num_distinct
    if U <= capacity:
        # After its first in-call access an id can never be pushed out:
        # at most U - 1 < capacity distinct ids stack above it.
        hit = np.ones(n, dtype=bool)
        hit[artifact.first_pos] = False
    else:
        hit = artifact.distances < capacity

    # First in-call occurrences of carried ids can still hit: the id
    # sits at some depth of the carried stack and sinks one slot per
    # distinct id accessed before it that was not already above it.
    if R:
        svals, sidx = _pack_sort_state(state)
        cold_ids = trace[artifact.first_pos]
        fi = np.searchsorted(svals, cold_ids)
        fi_c = np.minimum(fi, R - 1)
        matched = svals[fi_c] == cold_ids
        if matched.any():
            midx = np.flatnonzero(matched)
            rank = (R - 1 - sidx[fi_c[midx]]).astype(np.int64)  # ids above
            above = midx + rank - count_leq_before(rank)
            hit[artifact.first_pos[midx]] = above < capacity

    misses = int(n - np.count_nonzero(hit))
    evictions = max(0, R + misses - capacity)

    # New residency: carried ids never touched keep their relative
    # order below everything accessed in-call; accessed ids stack by
    # last occurrence; then clip to capacity from the LRU side.
    tail_ids = trace[artifact.last_pos]
    if R:
        si = np.searchsorted(artifact.uniq_sorted, state)
        si_c = np.minimum(si, U - 1)
        untouched = state[artifact.uniq_sorted[si_c] != state]
        new_state = np.concatenate((untouched, tail_ids))
    else:
        new_state = tail_ids
    if len(new_state) > capacity:
        new_state = new_state[len(new_state) - capacity:]

    fetch_counts = np.bincount(
        artifact.id_index[~hit], minlength=U
    ).astype(np.int64)
    return ReplayResult(
        hit, misses, evictions, new_state, artifact.uniq_sorted, fetch_counts
    )
