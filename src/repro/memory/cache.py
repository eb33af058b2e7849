"""Set-associative LRU cache (the GPU L2 model).

The paper's motivation section measures L2 hit ratios of DGL's NA stage
on a T4 GPU (30.1 % on IMDB, 17.5 % on DBLP). The GPU performance model
replays the same access stream through this cache with the real chips'
L2 geometries to reproduce those ratios.

Per-set recency is an :class:`~collections.OrderedDict` (O(1) touch,
insert and LRU eviction); whole address streams go through the
vectorized replay engine, which partitions the trace by set index and
runs one stack-distance pass with ``ways`` as the per-set capacity.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import sorted_unique
from repro.memory.replay import count_leq_before

__all__ = ["CacheConfig", "CacheStats", "SetAssociativeCache"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a set-associative cache.

    Attributes:
        size_bytes: total data capacity.
        line_bytes: cache-line size.
        ways: associativity.
    """

    size_bytes: int
    line_bytes: int = 128
    ways: int = 16

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ValueError("cache dimensions must be positive")
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ValueError("size must be a multiple of line_bytes * ways")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass
class CacheStats:
    """Hit/miss accounting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_from_dram: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """A set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        self._occupancy = 0
        self.stats = CacheStats()

    def _locate(self, address: int) -> tuple[int, int]:
        """Map a byte address to ``(set index, tag)``."""
        line = address // self.config.line_bytes
        return line % self.config.num_sets, line // self.config.num_sets

    def access_line(self, address: int) -> bool:
        """Touch the line containing ``address``; True on hit."""
        set_idx, tag = self._locate(address)
        lru = self._sets[set_idx]
        if tag in lru:
            lru.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self.stats.bytes_from_dram += self.config.line_bytes
        if len(lru) >= self.config.ways:
            lru.popitem(last=False)
            self.stats.evictions += 1
            self._occupancy -= 1
        lru[tag] = None
        self._occupancy += 1
        return False

    def access_lines(self, addresses: np.ndarray) -> np.ndarray:
        """Touch one line per address; vectorized batch replay.

        Equivalent to ``[self.access_line(a) for a in addresses]`` --
        same statistics and the same final per-set LRU state -- but the
        whole stream is replayed at once: accesses are partitioned by
        set index and a single stack-distance pass with ``ways`` as the
        capacity decides every hit.

        Args:
            addresses: byte addresses in request order.

        Returns:
            Boolean hit mask in request order.
        """
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        n = addresses.shape[0]
        if n == 0:
            return np.zeros(0, dtype=bool)
        cfg = self.config
        lines = addresses // cfg.line_bytes
        set_idx = lines % cfg.num_sets
        tags = lines // cfg.num_sets

        # Stable-partition the accesses by set, then prepend each set's
        # resident tags (LRU -> MRU) as warm-up accesses: warming an
        # empty set with at most ``ways`` distinct tags reproduces the
        # carried state exactly and can never evict, so the stats of
        # the real suffix are exact.
        K = 1 << (n - 1).bit_length() if n > 1 else 1
        order = (np.sort(set_idx * K + np.arange(n, dtype=np.int64)) & (K - 1))
        seg_sets = set_idx[order]
        touched = sorted_unique(seg_sets)
        prefix_tags = [
            np.fromiter(self._sets[s].keys(), dtype=np.int64,
                        count=len(self._sets[s]))
            for s in touched.tolist()
        ]
        prefix_lens = np.array([len(p) for p in prefix_tags], dtype=np.int64)
        seg_counts = np.searchsorted(seg_sets, touched, side="right") - (
            np.searchsorted(seg_sets, touched, side="left")
        )
        seg_ends = np.cumsum(seg_counts)
        acc_tags = tags[order]
        parts: list[np.ndarray] = []
        real_parts: list[np.ndarray] = []
        start = 0
        for k in range(len(touched)):
            parts.append(prefix_tags[k])
            parts.append(acc_tags[start:seg_ends[k]])
            real_parts.append(np.zeros(len(prefix_tags[k]), dtype=bool))
            real_parts.append(np.ones(seg_ends[k] - start, dtype=bool))
            start = seg_ends[k]
        combined = np.concatenate(parts)
        is_real = np.concatenate(real_parts)
        lens = prefix_lens + seg_counts
        seg_of = np.repeat(np.arange(len(touched), dtype=np.int64), lens)
        seg_start = np.concatenate(([0], np.cumsum(lens)[:-1]))

        m = len(combined)
        P = 1 << (m - 1).bit_length() if m > 1 else 1
        # Previous occurrence of the same (set, tag), in combined order.
        comp = seg_of * (combined.max() + 1) + combined
        sp = np.sort(comp * P + np.arange(m, dtype=np.int64))
        pos_sorted = sp & (P - 1)
        same = (sp // P)[1:] == (sp // P)[:-1]
        prev = np.full(m, -1, dtype=np.int64)
        prev[pos_sorted[1:][same]] = pos_sorted[:-1][same]
        prev_local = np.where(prev >= 0, prev - seg_start[seg_of], -1)

        # One dominance pass over all sets at once: per-segment keys
        # make cross-segment contributions constant (every element of
        # an earlier segment counts), removed by the offset subtraction.
        keys = seg_of * np.int64(m + 1) + prev_local + 1
        c_local = count_leq_before(keys) - seg_start[seg_of]
        d = c_local - (prev_local + 1)
        hit = (prev_local >= 0) & (d < cfg.ways)

        real_hit = hit[is_real]
        real_seg = seg_of[is_real]
        misses_per_seg = np.bincount(
            real_seg[~real_hit], minlength=len(touched)
        )
        evictions = np.maximum(
            prefix_lens + misses_per_seg - cfg.ways, 0
        ).sum()
        hits_total = int(real_hit.sum())
        misses_total = int(len(real_hit) - hits_total)
        self.stats.hits += hits_total
        self.stats.misses += misses_total
        self.stats.evictions += int(evictions)
        self.stats.bytes_from_dram += misses_total * cfg.line_bytes

        # Rebuild the touched sets: last `ways` distinct tags by final
        # touch, LRU -> MRU per set.
        has_next = np.zeros(m, dtype=bool)
        has_next[pos_sorted[:-1][same]] = True
        is_last = ~has_next
        for k, s in enumerate(touched.tolist()):
            lo, hi = seg_start[k], seg_start[k] + lens[k]
            last_tags = combined[lo:hi][is_last[lo:hi]]
            if len(last_tags) > cfg.ways:
                last_tags = last_tags[len(last_tags) - cfg.ways:]
            new_set = OrderedDict.fromkeys(last_tags.tolist())
            self._occupancy += len(new_set) - len(self._sets[s])
            self._sets[s] = new_set

        out = np.empty(n, dtype=bool)
        out[order] = real_hit
        return out

    def access(self, address: int, nbytes: int) -> int:
        """Touch every line in ``[address, address + nbytes)``.

        Returns:
            Number of missing lines (each costs a DRAM line fetch).
        """
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        line = self.config.line_bytes
        first = address // line
        last = (address + nbytes - 1) // line
        if last == first:
            return 0 if self.access_line(first * line) else 1
        addresses = np.arange(first, last + 1, dtype=np.int64) * line
        hits = self.access_lines(addresses)
        return int((~hits).sum())

    def contains(self, address: int) -> bool:
        """Presence check without updating recency or statistics."""
        set_idx, tag = self._locate(address)
        return tag in self._sets[set_idx]

    def flush(self) -> None:
        """Invalidate all contents; statistics are preserved."""
        for lru in self._sets:
            lru.clear()
        self._occupancy = 0

    @property
    def occupancy_lines(self) -> int:
        return self._occupancy
