"""Set-associative hash table allocating matching FIFOs to vertices.

The Decoupler cannot afford one physical FIFO per destination vertex;
instead a hash table maps vertex ids onto a fixed pool of FIFO slots,
"organized in a set-associative manner" (§4.3). Conflicts (more live
vertices hashing to a set than it has ways) force a spill to the
Matching Buffer, which the cycle model charges as a stall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import sorted_unique

__all__ = ["HashTableStats", "HashTable", "count_fifo_conflicts"]


def count_fifo_conflicts(keys: np.ndarray, num_sets: int, ways: int) -> int:
    """Conflicts a fresh table would record replaying ``keys``.

    Bit-identical to ``stats.conflicts`` of a fresh
    ``HashTable(num_sets, ways)`` after ``lookup(k) is None and
    insert(k)`` for every ``k`` in ``keys`` (differential-tested
    across the scenario catalog), but without materializing slot
    assignments: all sets replay their probe substreams
    *simultaneously*, one stream position per step. Two reductions
    keep the step count small:

    - consecutive repeats of one key within a set are guaranteed hits
      (nothing was inserted in between), so runs collapse first;
    - a set whose distinct-key count fits its associativity can never
      evict, so only genuinely overflowing sets are simulated.

    Each simulated set is a circular buffer of its last ``ways``
    inserted keys -- exactly the insertion-ordered dict eviction of
    :meth:`HashTable.insert` (hits do not refresh FIFO position).
    """
    if num_sets <= 0 or ways <= 0:
        raise ValueError("num_sets and ways must be positive")
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    if keys.size == 0:
        return 0
    sets = ((keys * 2654435761) & 0xFFFFFFFF) % num_sets
    # Stable sorts on keys of 16 bits or fewer run as radix sorts.
    order = np.argsort(
        sets.astype(np.min_scalar_type(num_sets - 1)), kind="stable"
    )
    set_sorted = sets[order]
    key_sorted = keys[order]
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = (key_sorted[1:] != key_sorted[:-1]) | (
        set_sorted[1:] != set_sorted[:-1]
    )
    set_sorted = set_sorted[keep]
    key_sorted = key_sorted[keep]

    span = int(keys.max()) + 1
    distinct = sorted_unique(set_sorted * span + key_sorted)
    distinct_per_set = np.bincount(distinct // span, minlength=num_sets)
    busy = distinct_per_set > ways
    if not busy.any():
        return 0
    probe = busy[set_sorted]
    set_sorted = set_sorted[probe]
    key_sorted = key_sorted[probe]
    row_of = np.cumsum(busy) - 1
    rows = row_of[set_sorted]
    num_rows = int(busy.sum())

    # Column = position within the set's collapsed substream; step the
    # simulation one column at a time across every busy set at once.
    counts = np.bincount(rows, minlength=num_rows)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    col = np.arange(rows.size, dtype=np.int64) - starts[rows]
    depth = int(counts.max())
    by_col = np.argsort(
        col.astype(np.min_scalar_type(depth - 1)), kind="stable"
    )
    col_sorted = col[by_col]
    row_by_col = rows[by_col]
    key_by_col = key_sorted[by_col]
    bounds = np.searchsorted(col_sorted, np.arange(depth + 1))

    # Way-major layout: the hit test is `ways` 1-D compares, and an
    # insert is one flat scatter at ``head * num_rows + row``.
    bucket = np.full(ways * num_rows, -1, dtype=np.int64)
    head = np.zeros(num_rows, dtype=np.int64)
    occupancy = np.zeros(num_rows, dtype=np.int64)
    conflicts = 0
    for step in range(depth):
        lo, hi = bounds[step], bounds[step + 1]
        row = row_by_col[lo:hi]
        key = key_by_col[lo:hi]
        hit = bucket[row] == key
        for way in range(1, ways):
            hit |= bucket[way * num_rows + row] == key
        row = row[~hit]
        key = key[~hit]
        conflicts += int(np.count_nonzero(occupancy[row] >= ways))
        bucket[head[row] * num_rows + row] = key
        head[row] = (head[row] + 1) % ways
        occupancy[row] += 1
    return conflicts


@dataclass
class HashTableStats:
    lookups: int = 0
    inserts: int = 0
    conflicts: int = 0  # insert found the set full -> matching-buffer spill
    evictions: int = 0


class HashTable:
    """Maps vertex ids to FIFO slots with bounded associativity.

    Args:
        num_sets: number of hash sets.
        ways: slots per set.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        self._sets: list[dict[int, int]] = [dict() for _ in range(num_sets)]
        self._next_slot = 0
        self.stats = HashTableStats()

    def _set_of(self, key: int) -> int:
        # Multiplicative hashing spreads consecutive vertex ids.
        return (key * 2654435761 & 0xFFFFFFFF) % self.num_sets

    def lookup(self, key: int) -> int | None:
        """Slot currently assigned to ``key``, or None."""
        self.stats.lookups += 1
        return self._sets[self._set_of(key)].get(key)

    def insert(self, key: int) -> tuple[int, bool]:
        """Assign a slot to ``key``.

        Returns:
            ``(slot, conflicted)`` -- ``conflicted`` is True when the
            set was full and the oldest occupant was displaced (a
            Matching Buffer spill in hardware).
        """
        self.stats.inserts += 1
        bucket = self._sets[self._set_of(key)]
        if key in bucket:
            return bucket[key], False
        conflicted = False
        if len(bucket) >= self.ways:
            oldest = next(iter(bucket))
            del bucket[oldest]
            self.stats.conflicts += 1
            self.stats.evictions += 1
            conflicted = True
        slot = self._next_slot
        self._next_slot += 1
        bucket[key] = slot
        return slot, conflicted

    def remove(self, key: int) -> None:
        """Free ``key``'s slot if present."""
        self._sets[self._set_of(key)].pop(key, None)

    def clear(self) -> None:
        """Flush all sets (between semantic graphs); stats persist."""
        for bucket in self._sets:
            bucket.clear()

    @property
    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)
