"""Explicitly managed on-chip vertex-feature buffer.

The accelerator's NA buffer keeps projected feature vectors of recently
used vertices. Unlike a hardware cache it is fully associative and
entry-granular (one entry = one vertex's feature vector), which is how
HiHGNN manages it. The statistic that matters to the paper is the
*replacement count* of each vertex: a vertex whose feature was fetched
``n`` times from DRAM was replaced ``n - 1`` times (Fig. 2), and every
re-fetch is a redundant DRAM access the restructuring method removes.

Bulk traces go through the vectorized replay engine
(:mod:`repro.memory.replay`); the element-at-a-time path is kept both
for scalar accesses and, under ``naive=True``, as the reference
implementation the replay engine is equivalence-tested against.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.memory.replay import TraceArtifact, replay_lru

__all__ = ["BufferStats", "FeatureBuffer"]


@dataclass
class BufferStats:
    """Access statistics of one buffer epoch."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_from_dram: int = 0
    bytes_to_dram: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class FeatureBuffer:
    """LRU vertex-feature scratchpad with replacement accounting.

    Args:
        capacity_bytes: on-chip capacity (e.g. 14.52 MB for HiHGNN's
            NA buffer).
        entry_bytes: size of one feature vector; after feature
            projection every vertex has the same hidden dimension, so
            entries are uniform.
        name: label for reports.

    Raises:
        ValueError: if even one entry does not fit.
    """

    def __init__(
        self, capacity_bytes: int, entry_bytes: int, name: str = "buffer"
    ) -> None:
        if entry_bytes <= 0:
            raise ValueError("entry_bytes must be positive")
        self.capacity_entries = int(capacity_bytes) // int(entry_bytes)
        if self.capacity_entries < 1:
            raise ValueError(
                f"buffer of {capacity_bytes} B cannot hold a single "
                f"{entry_bytes} B entry"
            )
        self.capacity_bytes = int(capacity_bytes)
        self.entry_bytes = int(entry_bytes)
        self.name = name
        # Resident ids, LRU -> MRU: the carried state replay_lru takes
        # and returns. The scalar paths convert it at their boundary.
        self._resident = np.empty(0, dtype=np.int64)
        # Fetch accounting is split: scalar accesses update the Counter
        # directly, batched replays append (ids, counts) array chunks;
        # the two are merged lazily at reporting time.
        self._fetch_counts: Counter[int] = Counter()
        self._fetch_chunks: list[tuple[np.ndarray, np.ndarray]] = []
        self.stats = BufferStats()

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access(self, vertex_id: int) -> bool:
        """Read one vertex's feature; fetches from DRAM on miss.

        Returns:
            True on hit, False on miss.
        """
        trace = np.array([vertex_id], dtype=np.int64)
        return self._access_many_naive(trace) == 0

    def access_many(
        self,
        vertex_ids: np.ndarray,
        *,
        collect_misses: bool = False,
        naive: bool = False,
        artifact: TraceArtifact | None = None,
    ) -> int | tuple[int, np.ndarray]:
        """Stream a sequence of feature reads; returns the miss count.

        The hot loop of every NA simulation. The default path replays
        the whole trace through the vectorized engine; ``naive=True``
        selects the legacy per-element loop (the reference the engine
        is equivalence-tested against).

        Args:
            vertex_ids: access trace, in request order.
            collect_misses: also return the missed vertex ids in
                request order (the DRAM fetch stream the HBM model
                judges row locality on).
            naive: use the element-at-a-time reference path.
            artifact: precomputed :class:`TraceArtifact` of exactly
                this trace (shared across buffers and capacities);
                built on the fly when omitted.
        """
        if naive:
            return self._access_many_naive(
                vertex_ids, collect_misses=collect_misses
            )
        n = len(vertex_ids)
        if n == 0:
            if collect_misses:
                return 0, np.empty(0, dtype=np.int64)
            return 0
        if artifact is None or not (
            artifact.trace is vertex_ids
            or (
                artifact.n == n
                and np.array_equal(artifact.trace, vertex_ids)
            )
        ):
            artifact = TraceArtifact(vertex_ids)
        result = replay_lru(artifact, self.capacity_entries, self._resident)
        self.stats.hits += result.hits
        self.stats.misses += result.misses
        self.stats.evictions += result.evictions
        self.stats.bytes_from_dram += result.misses * self.entry_bytes
        if result.misses:
            self._fetch_chunks.append((result.fetch_ids, result.fetch_counts))
        self._resident = result.new_state
        if collect_misses:
            return result.misses, artifact.trace[~result.hit_mask]
        return result.misses

    def _access_many_naive(
        self, vertex_ids: np.ndarray, *, collect_misses: bool = False
    ) -> int | tuple[int, np.ndarray]:
        """Seed implementation: plain iteration, one LRU op per element."""
        misses = 0
        missed_ids: list[int] = []
        resident = OrderedDict.fromkeys(self._resident.tolist())
        capacity = self.capacity_entries
        fetch_counts = self._fetch_counts
        evictions = 0
        hits = 0
        for vid in vertex_ids.tolist():
            if vid in resident:
                resident.move_to_end(vid)
                hits += 1
                continue
            misses += 1
            if collect_misses:
                missed_ids.append(vid)
            fetch_counts[vid] += 1
            if len(resident) >= capacity:
                resident.popitem(last=False)
                evictions += 1
            resident[vid] = None
        self._resident = np.fromiter(resident, dtype=np.int64, count=len(resident))
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.evictions += evictions
        self.stats.bytes_from_dram += misses * self.entry_bytes
        if collect_misses:
            return misses, np.array(missed_ids, dtype=np.int64)
        return misses

    def pin_writeback(self, nbytes: int) -> None:
        """Account an explicit write of results back to DRAM."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.stats.bytes_to_dram += nbytes

    def flush(self) -> None:
        """Empty the buffer (between semantic graphs); stats persist."""
        self._resident = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return len(self._resident)

    def fetch_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """DRAM fetches per vertex as ``(ids, counts)`` arrays.

        Ids ascend; counts are positive. The array form is what the
        vectorized histogram/merge paths consume.
        """
        parts_ids: list[np.ndarray] = []
        parts_counts: list[np.ndarray] = []
        if self._fetch_counts:
            parts_ids.append(
                np.fromiter(self._fetch_counts.keys(), dtype=np.int64)
            )
            parts_counts.append(
                np.fromiter(self._fetch_counts.values(), dtype=np.int64)
            )
        for ids, counts in self._fetch_chunks:
            nz = counts > 0
            parts_ids.append(ids[nz])
            parts_counts.append(counts[nz])
        if not parts_ids:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        all_ids = np.concatenate(parts_ids)
        all_counts = np.concatenate(parts_counts)
        uniq, inv = np.unique(all_ids, return_inverse=True)
        totals = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(totals, inv, all_counts)
        return uniq, totals

    def fetch_counts(self) -> dict[int, int]:
        """DRAM fetches per vertex id over the buffer's lifetime."""
        ids, counts = self.fetch_arrays()
        return dict(zip(ids.tolist(), counts.tolist()))

    def replacement_histogram(self, max_times: int = 8) -> dict[int, dict[str, float]]:
        """Fig. 2's statistic: vertices and DRAM accesses by replacement count.

        A vertex fetched ``n`` times was replaced ``n - 1`` times; the
        paper's histogram starts at replacement time 1 (vertices never
        replaced are off-chart) and merges ``>= max_times`` into the
        last bin.

        Returns:
            ``{replacement_times: {"vertex_ratio": ..., "access_ratio": ...}}``
            with ratios in percent of total vertices fetched / total
            DRAM accesses, matching the figure's two series.
        """
        _, counts = self.fetch_arrays()
        return replacement_histogram_from_counts(counts, max_times=max_times)

    def redundant_accesses(self) -> int:
        """DRAM fetches beyond the first per vertex (pure thrashing)."""
        _, counts = self.fetch_arrays()
        return int(counts.sum() - len(counts))


def replacement_histogram_from_counts(
    fetch_counts: np.ndarray, max_times: int = 8
) -> dict[int, dict[str, float]]:
    """Fig. 2 histogram from an array of per-vertex fetch counts."""
    histogram: dict[int, dict[str, float]] = {
        t: {"vertex_ratio": 0.0, "access_ratio": 0.0}
        for t in range(1, max_times + 1)
    }
    fetch_counts = np.asarray(fetch_counts, dtype=np.int64)
    total_vertices = len(fetch_counts)
    total_accesses = int(fetch_counts.sum()) if total_vertices else 0
    if not total_vertices or not total_accesses:
        return histogram
    times = fetch_counts - 1
    replaced = times >= 1
    buckets = np.minimum(times[replaced], max_times)
    vertex_counts = np.bincount(buckets, minlength=max_times + 1)
    access_sums = np.bincount(
        buckets, weights=fetch_counts[replaced], minlength=max_times + 1
    )
    for t in range(1, max_times + 1):
        histogram[t]["vertex_ratio"] = 100.0 * vertex_counts[t] / total_vertices
        histogram[t]["access_ratio"] = 100.0 * access_sums[t] / total_accesses
    return histogram
