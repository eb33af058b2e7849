"""Typed heterogeneous graphs (Table 1 notation).

A heterogeneous graph is ``G = (V, E, T_v, T_e)`` where ``T_v`` is the
vertex-type set and ``T_e`` the edge-type set; ``G`` is heterogeneous
when ``|T_v| + |T_e| > 2``. Each edge type is a *relation*
``R = (src_type -> dst_type)``, e.g. ``A -> M`` ("actor acts in movie")
in IMDB.

Vertices are numbered locally per type. A *global id* space concatenates
all types in declaration order; the simulators use global ids as feature
addresses in DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSR, readonly

__all__ = ["Relation", "HeteroGraph"]


@dataclass(frozen=True, order=True)
class Relation:
    """An edge type ``src_type --name--> dst_type``."""

    src_type: str
    name: str
    dst_type: str

    def __str__(self) -> str:
        return f"{self.src_type}-{self.name}->{self.dst_type}"

    def reversed(self, name: str | None = None) -> "Relation":
        """The reverse relation, e.g. ``P->A`` from ``A->P``."""
        return Relation(
            src_type=self.dst_type,
            name=name if name is not None else f"rev_{self.name}",
            dst_type=self.src_type,
        )


class HeteroGraph:
    """A heterogeneous graph with typed vertices and relational edges.

    Args:
        num_vertices: vertex count per vertex type, e.g.
            ``{"paper": 3025, "author": 5959}``. Declaration order fixes
            the global-id layout.
        feature_dims: raw feature dimension per vertex type. Types with
            no raw features (e.g. IMDB keywords) map to 0.
        edges: per-relation COO edge arrays ``{relation: (src, dst)}``
            with *local* vertex ids.
        name: optional dataset name for reporting.

    The graph adopts its int64 edge arrays without copying them and
    marks them read-only: a reverse relation is stored as its forward's
    ``(dst, src)`` array objects, and :func:`~repro.graph.semantic.build_semantic_graphs`
    shares them again, so an in-place write raises ``ValueError``
    instead of changing every holder's topology.
    """

    def __init__(
        self,
        num_vertices: dict[str, int],
        feature_dims: dict[str, int],
        edges: dict[Relation, tuple[np.ndarray, np.ndarray]],
        name: str = "hetero-graph",
    ) -> None:
        if not num_vertices:
            raise ValueError("at least one vertex type is required")
        for vtype, count in num_vertices.items():
            if count < 0:
                raise ValueError(f"negative vertex count for type {vtype!r}")
        for vtype in feature_dims:
            if vtype not in num_vertices:
                raise ValueError(f"feature dim for unknown vertex type {vtype!r}")

        self.name = name
        self._num_vertices = dict(num_vertices)
        self._feature_dims = {
            vtype: int(feature_dims.get(vtype, 0)) for vtype in num_vertices
        }

        self._offsets: dict[str, int] = {}
        offset = 0
        for vtype, count in self._num_vertices.items():
            self._offsets[vtype] = offset
            offset += count
        self._total_vertices = offset

        self._edges: dict[Relation, tuple[np.ndarray, np.ndarray]] = {}
        for rel, (src, dst) in edges.items():
            src = np.asarray(src, dtype=np.int64)
            dst = np.asarray(dst, dtype=np.int64)
            if rel.src_type not in num_vertices:
                raise ValueError(f"unknown source type in relation {rel}")
            if rel.dst_type not in num_vertices:
                raise ValueError(f"unknown destination type in relation {rel}")
            if src.shape != dst.shape:
                raise ValueError(f"edge arrays of {rel} differ in length")
            if len(src):
                if src.min() < 0 or src.max() >= num_vertices[rel.src_type]:
                    raise ValueError(f"source id out of range in relation {rel}")
                if dst.min() < 0 or dst.max() >= num_vertices[rel.dst_type]:
                    raise ValueError(f"destination id out of range in relation {rel}")
            self._edges[rel] = (readonly(src), readonly(dst))

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    @property
    def vertex_types(self) -> list[str]:
        """Vertex types in declaration (global-id) order."""
        return list(self._num_vertices)

    @property
    def relations(self) -> list[Relation]:
        """All relations in declaration order."""
        return list(self._edges)

    @property
    def num_vertex_types(self) -> int:
        return len(self._num_vertices)

    @property
    def num_edge_types(self) -> int:
        return len(self._edges)

    @property
    def is_heterogeneous(self) -> bool:
        """Whether ``|T_v| + |T_e| > 2`` (the paper's HetG criterion)."""
        return self.num_vertex_types + self.num_edge_types > 2

    def num_vertices(self, vtype: str | None = None) -> int:
        """Vertex count of one type, or of the whole graph."""
        if vtype is None:
            return self._total_vertices
        return self._num_vertices[vtype]

    def num_edges(self, relation: Relation | None = None) -> int:
        """Edge count of one relation, or of the whole graph."""
        if relation is None:
            return sum(len(src) for src, _ in self._edges.values())
        src, _ = self._edges[relation]
        return len(src)

    def feature_dim(self, vtype: str) -> int:
        """Raw feature dimension of a vertex type (0 if featureless)."""
        return self._feature_dims[vtype]

    def edges_of(self, relation: Relation) -> tuple[np.ndarray, np.ndarray]:
        """COO ``(src, dst)`` local-id arrays of one relation."""
        src, dst = self._edges[relation]
        return src, dst

    def adjacency(self, relation: Relation) -> CSR:
        """CSR adjacency (src rows -> dst cols) of one relation."""
        src, dst = self._edges[relation]
        return CSR.from_coo(
            src,
            dst,
            self._num_vertices[relation.src_type],
            self._num_vertices[relation.dst_type],
        )

    # ------------------------------------------------------------------
    # Global id space (feature addressing)
    # ------------------------------------------------------------------

    def type_offset(self, vtype: str) -> int:
        """Start of ``vtype`` in the global vertex-id space."""
        return self._offsets[vtype]

    def global_ids(self, vtype: str, local_ids: np.ndarray) -> np.ndarray:
        """Map local ids of ``vtype`` to global vertex ids."""
        local_ids = np.asarray(local_ids, dtype=np.int64)
        if len(local_ids) and (
            local_ids.min() < 0 or local_ids.max() >= self._num_vertices[vtype]
        ):
            raise ValueError(f"local id out of range for type {vtype!r}")
        return local_ids + self._offsets[vtype]

    def type_of_global(self, global_id: int) -> tuple[str, int]:
        """Map a global id back to ``(vtype, local_id)``."""
        if not 0 <= global_id < self._total_vertices:
            raise ValueError("global id out of range")
        for vtype in reversed(self.vertex_types):
            offset = self._offsets[vtype]
            if global_id >= offset:
                return vtype, global_id - offset
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def with_reverse_relations(self) -> "HeteroGraph":
        """A copy where every relation also has its reverse.

        Mirrors how DGL-style HGNN pipelines symmetrize relation sets
        (Table 2 lists both ``A -> M`` and ``M -> A``). Relations that
        already have a reverse present are left alone. A reverse holds
        its forward's read-only arrays, swapped, not copies.
        """
        edges = dict(self._edges)
        directed_pairs = {(r.src_type, r.dst_type) for r in edges}
        for rel, (src, dst) in list(self._edges.items()):
            if (rel.dst_type, rel.src_type) in directed_pairs:
                continue  # some relation already runs the other way
            rev = rel.reversed()
            edges[rev] = (dst, src)
        return HeteroGraph(
            self._num_vertices, self._feature_dims, edges, name=self.name
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        vparts = ", ".join(f"{t}:{n}" for t, n in self._num_vertices.items())
        return (
            f"HeteroGraph({self.name!r}, vertices=[{vparts}], "
            f"relations={len(self._edges)}, edges={self.num_edges()})"
        )
