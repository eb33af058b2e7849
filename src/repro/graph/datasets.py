"""Statistically matched synthetic versions of the paper's datasets.

Table 2 of the paper fixes vertex counts, feature dimensions and
relation sets for IMDB, ACM and DBLP. Edge counts are not printed in the
paper; we take them from the HGB benchmark releases of the same datasets
(Lv et al., KDD'21), which is what DGL and HiHGNN load (ACM's very
large term->paper relation is scaled to a quarter to keep pure-Python
simulation tractable; see EXPERIMENTS.md). Each relation is regenerated
with the planted-community bipartite model
(:func:`repro.graph.generators.community_bipartite`), because the
latent community structure of the real datasets is precisely what the
paper's restructuring method exploits.

Every spec includes both edge directions, exactly as Table 2 lists them
(``A -> M`` and ``M -> A`` are separate relations sharing one edge set,
stored once: the reverse holds the forward's arrays, swapped).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.generators import community_bipartite
from repro.graph.hetero import HeteroGraph, Relation

__all__ = ["RelationSpec", "DatasetSpec", "DATASET_SPECS", "load_dataset"]


@dataclass(frozen=True)
class RelationSpec:
    """One base relation of a dataset.

    The reverse direction is derived automatically; ``reverse_name``
    names it (Table 2 writes ACM's reverse citation as ``-P -> P``).

    ``num_blocks``/``mixing`` plant the community structure real HetGs
    exhibit (see :func:`repro.graph.generators.community_bipartite`);
    block counts are chosen so communities hold a few hundred vertices,
    matching the clustering granularity of the original datasets.
    """

    src_type: str
    name: str
    dst_type: str
    num_edges: int
    src_exponent: float = 0.8
    dst_exponent: float = 0.8
    num_blocks: int = 16
    mixing: float = 0.03
    reverse_name: str | None = None


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one synthetic dataset (a Table 2 row)."""

    name: str
    num_vertices: dict[str, int]
    feature_dims: dict[str, int]
    relations: tuple[RelationSpec, ...] = field(default_factory=tuple)

    @property
    def total_vertices(self) -> int:
        return sum(self.num_vertices.values())

    @property
    def total_edges(self) -> int:
        """Total directed edges including reverse relations."""
        return 2 * sum(spec.num_edges for spec in self.relations)


DATASET_SPECS: dict[str, DatasetSpec] = {
    "imdb": DatasetSpec(
        name="imdb",
        num_vertices={"movie": 4932, "director": 2393, "actor": 6124, "keyword": 7971},
        feature_dims={"movie": 3489, "director": 3341, "actor": 3341, "keyword": 0},
        relations=(
            RelationSpec("actor", "performs", "movie", 14779, 0.9, 0.6, 24),
            RelationSpec("keyword", "describes", "movie", 23610, 0.8, 0.5, 32),
            RelationSpec("director", "directs", "movie", 4932, 0.7, 0.0, 16),
        ),
    ),
    "acm": DatasetSpec(
        name="acm",
        num_vertices={"paper": 3025, "author": 5959, "subject": 56, "term": 1902},
        feature_dims={"paper": 1902, "author": 1902, "subject": 1902, "term": 0},
        relations=(
            RelationSpec("term", "appears", "paper", 85810 // 4, 0.8, 0.4, 12),
            RelationSpec("subject", "covers", "paper", 3025, 0.9, 0.0, 8),
            RelationSpec(
                "paper", "cites", "paper", 5343, 0.8, 0.8, 16,
                reverse_name="-cites",
            ),
            RelationSpec("author", "writes", "paper", 9949, 0.9, 0.5, 24),
        ),
    ),
    "dblp": DatasetSpec(
        name="dblp",
        num_vertices={"author": 4057, "paper": 14328, "term": 7723, "venue": 20},
        feature_dims={"author": 334, "paper": 4231, "term": 50, "venue": 0},
        relations=(
            RelationSpec("author", "writes", "paper", 19645, 0.9, 0.5, 16),
            RelationSpec("venue", "publishes", "paper", 14328, 0.9, 0.0, 20),
            RelationSpec("term", "appears", "paper", 85810, 0.7, 0.4, 32),
        ),
    ),
}


def load_dataset(
    name: str, *, seed: int = 0, scale: float = 1.0
) -> HeteroGraph:
    """Build a synthetic dataset matched to a Table 2 row.

    Args:
        name: ``"acm"``, ``"imdb"`` or ``"dblp"`` (case-insensitive).
        seed: RNG seed; the same seed always yields the same graph.
        scale: uniform down-scaling of vertex and edge counts, e.g.
            ``scale=0.1`` for fast unit tests. ``1.0`` reproduces the
            published sizes.

    Returns:
        A :class:`~repro.graph.hetero.HeteroGraph` with both edge
        directions per base relation, as in Table 2.
    """
    key = name.lower()
    if key not in DATASET_SPECS:
        known = ", ".join(sorted(DATASET_SPECS))
        raise KeyError(f"unknown dataset {name!r}; known datasets: {known}")
    if not 0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    spec = DATASET_SPECS[key]
    rng = np.random.default_rng(seed)

    num_vertices = {
        vtype: max(2, int(round(count * scale)))
        for vtype, count in spec.num_vertices.items()
    }

    edges: dict[Relation, tuple[np.ndarray, np.ndarray]] = {}
    for rel_spec in spec.relations:
        n_src = num_vertices[rel_spec.src_type]
        n_dst = num_vertices[rel_spec.dst_type]
        # Scale edges slightly super-linearly with vertices so average
        # degree stays roughly constant under down-scaling.
        n_edges = max(1, int(round(rel_spec.num_edges * scale)))
        n_edges = min(n_edges, n_src * n_dst)
        src, dst = community_bipartite(
            n_src,
            n_dst,
            n_edges,
            num_blocks=max(2, int(round(rel_spec.num_blocks * scale**0.5))),
            mixing=rel_spec.mixing,
            src_exponent=rel_spec.src_exponent,
            dst_exponent=rel_spec.dst_exponent,
            seed=rng,
        )
        relation = Relation(rel_spec.src_type, rel_spec.name, rel_spec.dst_type)
        edges[relation] = (src, dst)
        reverse = relation.reversed(rel_spec.reverse_name)
        edges[reverse] = (dst, src)

    return HeteroGraph(
        num_vertices=num_vertices,
        feature_dims=dict(spec.feature_dims),
        edges=edges,
        name=spec.name if scale == 1.0 else f"{spec.name}@{scale:g}",
    )
