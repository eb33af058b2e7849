"""Compressed sparse row adjacency used throughout the library.

The simulators walk adjacency millions of times, so the representation
is two flat int64 arrays (``indptr``, ``indices``) rather than Python
dicts. Rows are *source* vertices; a CSC view of the same edge set is
just a CSR built with the roles swapped.

Topology arrays are shared, not copied: a relation and its reverse hold
the same edge arrays, and a reverse semantic graph's CSR is its twin's
CSC. Every shared array is therefore read-only (:func:`readonly`), so a
stray in-place write raises ``ValueError`` instead of corrupting the
other holders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CSR", "gather_rows", "readonly", "sorted_unique"]


def readonly(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only in place and return it.

    Its holder adopts the array without a copy and may share it; any
    later in-place write through any reference raises ``ValueError``.
    """
    array.flags.writeable = False
    return array


def gather_rows(csr: "CSR", schedule: np.ndarray) -> np.ndarray:
    """Concatenate the neighbor lists of ``schedule``'s rows, in order.

    Vectorized equivalent of
    ``np.concatenate([csr.neighbors(v) for v in schedule])`` -- the
    access-trace primitive behind every NA-stage simulation.
    """
    schedule = np.asarray(schedule, dtype=np.int64)
    if not len(schedule):
        return np.empty(0, dtype=np.int64)
    starts = csr.indptr[schedule]
    counts = csr.indptr[schedule + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # offset trick: positions of each run inside csr.indices
    run_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    offsets = np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)
    return csr.indices[np.repeat(starts, counts) + offsets]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``values``: ``np.unique`` without options.

    Same values and dtype as ``np.unique(values)``, but always by
    sort-and-mask. From numpy 2.3 on, a plain ``np.unique`` on integers
    goes through a hash table and then sorts the result, about 20x
    slower than this at 100k distinct values. The caller's array is
    never modified.
    """
    out = np.sort(np.asarray(values).ravel())
    if len(out) < 2:
        return out
    keep = np.empty(len(out), dtype=bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


@dataclass(frozen=True)
class CSR:
    """Immutable CSR adjacency over ``num_rows`` row vertices.

    ``indptr`` and ``indices`` are adopted read-only, not copied: one
    CSR may serve a semantic graph as its CSR and the reverse relation
    as its CSC, so an in-place write to either raises ``ValueError``.

    Attributes:
        indptr: ``(num_rows + 1,)`` int64 array; row ``u`` owns
            ``indices[indptr[u]:indptr[u + 1]]``.
        indices: ``(num_edges,)`` int64 array of column vertex ids.
        num_cols: number of column vertices (columns may be absent from
            ``indices`` when isolated).
    """

    indptr: np.ndarray
    indices: np.ndarray
    num_cols: int

    def __post_init__(self) -> None:
        readonly(self.indptr)
        readonly(self.indices)
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.num_cols
        ):
            raise ValueError("indices out of range for num_cols")

    @classmethod
    def from_parts(
        cls, indptr: np.ndarray, indices: np.ndarray, num_cols: int
    ) -> "CSR":
        """Adopt already-validated arrays without re-checking them.

        The attach path of the shared-memory artifact layout
        (:mod:`repro.platforms.shm`) rebuilds CSRs from arrays that
        were validated once at build time and published read-only;
        re-running ``__post_init__`` there would cost O(E) per worker
        per dataset for nothing. Callers own the validity guarantee.
        """
        csr = object.__new__(cls)
        object.__setattr__(csr, "indptr", readonly(indptr))
        object.__setattr__(csr, "indices", readonly(indices))
        object.__setattr__(csr, "num_cols", int(num_cols))
        return csr

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        num_rows: int,
        num_cols: int,
        *,
        sort_cols: bool = True,
    ) -> "CSR":
        """Build a CSR from COO edge arrays.

        Args:
            rows: source vertex id per edge.
            cols: destination vertex id per edge.
            num_rows: number of row vertices.
            num_cols: number of column vertices.
            sort_cols: sort each row's neighbor list ascending, giving a
                canonical representation (useful for equality in tests).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have the same shape")
        if len(rows) and (rows.min() < 0 or rows.max() >= num_rows):
            raise ValueError("row id out of range")
        if len(cols) and (cols.min() < 0 or cols.max() >= num_cols):
            raise ValueError("col id out of range")

        counts = np.bincount(rows, minlength=num_rows)
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if sort_cols and num_cols and num_rows <= (
            np.iinfo(np.int64).max // max(num_cols, 1)
        ):
            # Pack (row, col) into one int64 and value-sort: far faster
            # than lexsort, and row grouping falls out of the bincount.
            cols_sorted = np.sort(rows * np.int64(num_cols) + cols) % num_cols
        else:
            if sort_cols:
                order = np.lexsort((cols, rows))
            else:
                order = np.argsort(rows, kind="stable")
            cols_sorted = cols[order]
        return cls(indptr=indptr, indices=cols_sorted, num_cols=num_cols)

    @property
    def num_rows(self) -> int:
        """Number of row vertices."""
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of stored edges."""
        return len(self.indices)

    def neighbors(self, u: int) -> np.ndarray:
        """Neighbor ids of row vertex ``u`` (a zero-copy view)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        """Out-degree of row vertex ``u``."""
        return int(self.indptr[u + 1] - self.indptr[u])

    def degrees(self) -> np.ndarray:
        """Out-degree of every row vertex as an int64 array."""
        return np.diff(self.indptr)

    def transpose(self) -> "CSR":
        """The same edge set with rows and columns swapped (a CSC view)."""
        rows = np.repeat(np.arange(self.num_rows, dtype=np.int64), self.degrees())
        return CSR.from_coo(self.indices, rows, self.num_cols, self.num_rows)

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(rows, cols)`` COO arrays in row-major order."""
        rows = np.repeat(np.arange(self.num_rows, dtype=np.int64), self.degrees())
        return rows, self.indices.copy()

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` is present (binary search per row)."""
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return bool(pos < len(row) and row[pos] == v)
