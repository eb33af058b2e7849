"""Built-in scenario families.

The paper evaluates buffer thrashing on three fixed datasets; these
families open that up into sweeps along the axes that actually drive
the phenomenon — working-set size vs. buffer capacity (``scale``,
``thrash``), degree skew driving feature reuse distance (``skew``,
``star``), relation-set width (``relations``) and latent community
structure (``community``) — plus a no-reuse baseline (``uniform``)
where any thrashing at all is a simulator bug.

Every family is deterministic in ``(params, seed, scale)``: graphs are
generated through :mod:`repro.graph.generators` with a single
``numpy.random.Generator``, and the adversarial families are built
from closed-form edge patterns with no randomness beyond an id
permutation. ``scale`` multiplies every vertex/edge count, so one
sweep definition serves quick CI smoke runs and full-size experiments.

Like the Table 2 catalog, every family emits both edge directions per
base relation.
"""

from __future__ import annotations

import numpy as np

from repro.graph.datasets import DATASET_SPECS
from repro.graph.generators import (
    chung_lu_bipartite,
    community_bipartite,
    configuration_bipartite,
    power_law_weights,
)
from repro.graph.hetero import HeteroGraph, Relation
from repro.scenarios.registry import ScenarioParam, register_scenario

__all__: list[str] = []


def _sized(count: int | float, scale: float, minimum: int = 2) -> int:
    """Apply the global scale factor to one count (floor ``minimum``)."""
    return max(minimum, int(round(count * scale)))


def _degree_sequence(
    n: int, exponent: float, total: int, rng: np.random.Generator
) -> np.ndarray:
    """Integer power-law degree sequence summing exactly to ``total``.

    Largest-remainder rounding of shuffled power-law weights: exact
    total, deterministic in ``rng`` state, and vertex id decorrelated
    from degree.
    """
    weights = power_law_weights(n, exponent, rng)
    ideal = weights * total
    degrees = np.floor(ideal).astype(np.int64)
    remainder = int(total - degrees.sum())
    order = np.argsort(-(ideal - degrees), kind="stable")
    degrees[order[:remainder]] += 1
    return degrees


def _with_reverse(
    edges: dict[Relation, tuple[np.ndarray, np.ndarray]],
) -> dict[Relation, tuple[np.ndarray, np.ndarray]]:
    """Add the reverse direction of every relation (Table 2 style).

    The reverse holds the forward's arrays, swapped, not copies.
    """
    full = dict(edges)
    for rel, (src, dst) in edges.items():
        full[rel.reversed()] = (dst, src)
    return full


def _bipartite_graph(
    num_src: int,
    num_dst: int,
    src: np.ndarray,
    dst: np.ndarray,
    feature_dim: int,
    relation_name: str = "touches",
) -> HeteroGraph:
    """Two-type graph around one generated relation (plus reverse)."""
    relation = Relation("src", relation_name, "dst")
    return HeteroGraph(
        num_vertices={"src": num_src, "dst": num_dst},
        feature_dims={"src": feature_dim, "dst": feature_dim},
        edges=_with_reverse({relation: (src, dst)}),
    )


# ----------------------------------------------------------------------
# Sweep families
# ----------------------------------------------------------------------


@register_scenario(
    "scale",
    params=(
        ScenarioParam("base", "acm", "catalog dataset the sweep scales"),
        ScenarioParam(
            "factor", 1.0, "vertex/edge multiplier (sweep 0.25x-8x)"
        ),
    ),
    doc="A Table 2 dataset with every vertex and edge count multiplied "
    "by `factor` — unlike catalog `scale`, factors above 1 grow the "
    "working set past the paper sizes.",
)
def _build_scale(*, seed, scale, base, factor):
    key = str(base).lower()
    if key not in DATASET_SPECS:
        known = ", ".join(sorted(DATASET_SPECS))
        raise ValueError(
            f"scale scenario base {base!r} is not a catalog dataset; "
            f"known datasets: {known}"
        )
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor}")
    spec = DATASET_SPECS[key]
    effective = factor * scale
    rng = np.random.default_rng(seed)

    num_vertices = {
        vtype: _sized(count * effective, 1.0)
        for vtype, count in spec.num_vertices.items()
    }
    edges: dict[Relation, tuple[np.ndarray, np.ndarray]] = {}
    for rel_spec in spec.relations:
        n_src = num_vertices[rel_spec.src_type]
        n_dst = num_vertices[rel_spec.dst_type]
        n_edges = min(
            max(1, int(round(rel_spec.num_edges * effective))), n_src * n_dst
        )
        src, dst = community_bipartite(
            n_src,
            n_dst,
            n_edges,
            num_blocks=max(2, int(round(rel_spec.num_blocks * effective**0.5))),
            mixing=rel_spec.mixing,
            src_exponent=rel_spec.src_exponent,
            dst_exponent=rel_spec.dst_exponent,
            seed=rng,
        )
        relation = Relation(rel_spec.src_type, rel_spec.name, rel_spec.dst_type)
        edges[relation] = (src, dst)
        edges[relation.reversed(rel_spec.reverse_name)] = (dst, src)
    return HeteroGraph(
        num_vertices=num_vertices,
        feature_dims=dict(spec.feature_dims),
        edges=edges,
    )


@register_scenario(
    "skew",
    params=(
        ScenarioParam("num_src", 2048, "source-side vertex count"),
        ScenarioParam("num_dst", 1024, "destination-side vertex count"),
        ScenarioParam("num_edges", 16384, "distinct edge count"),
        ScenarioParam(
            "exponent", 0.8, "degree-skew exponent, both sides (sweep 0.0-2.0)"
        ),
        ScenarioParam("feature_dim", 64, "raw feature dimension, both types"),
    ),
    doc="One bipartite configuration-model relation whose degree-skew "
    "exponent is the sweep axis: 0.0 is uniform, 2.0 concentrates "
    "reuse on a few hot vertices. Exact degree control means the whole "
    "0.0-2.0 range stays feasible; duplicate stubs are dropped, so "
    "realized edges can fall slightly below `num_edges` at high skew.",
)
def _build_skew(*, seed, scale, num_src, num_dst, num_edges, exponent, feature_dim):
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    n_src = _sized(num_src, scale)
    n_dst = _sized(num_dst, scale)
    n_edges = min(_sized(num_edges, scale, minimum=1), n_src * n_dst)
    rng = np.random.default_rng(seed)
    src, dst = configuration_bipartite(
        _degree_sequence(n_src, exponent, n_edges, rng),
        _degree_sequence(n_dst, exponent, n_edges, rng),
        seed=rng,
    )
    return _bipartite_graph(n_src, n_dst, src, dst, feature_dim)


@register_scenario(
    "relations",
    params=(
        ScenarioParam("num_types", 4, "vertex-type count"),
        ScenarioParam(
            "num_relations", 6, "base relation count (sweep axis)"
        ),
        ScenarioParam("vertices_per_type", 1024, "vertex count per type"),
        ScenarioParam("edges_per_relation", 4096, "edges per base relation"),
        ScenarioParam("exponent", 0.8, "degree-skew exponent"),
        ScenarioParam("feature_dim", 64, "raw feature dimension per type"),
    ),
    doc="Relation-count sweep: `num_relations` skewed bipartite "
    "relations threaded round-robin over `num_types` vertex types, so "
    "semantic-graph count (and frontend pipelining pressure) is the "
    "swept axis.",
)
def _build_relations(
    *,
    seed,
    scale,
    num_types,
    num_relations,
    vertices_per_type,
    edges_per_relation,
    exponent,
    feature_dim,
):
    if num_types < 2:
        raise ValueError(f"num_types must be at least 2, got {num_types}")
    if num_relations < 1:
        raise ValueError(
            f"num_relations must be positive, got {num_relations}"
        )
    n_per_type = _sized(vertices_per_type, scale)
    n_edges = min(
        _sized(edges_per_relation, scale, minimum=1), n_per_type * n_per_type
    )
    rng = np.random.default_rng(seed)
    types = [f"v{i}" for i in range(num_types)]
    edges: dict[Relation, tuple[np.ndarray, np.ndarray]] = {}
    for k in range(num_relations):
        src_t = types[k % num_types]
        dst_t = types[(k + 1) % num_types]
        src, dst = chung_lu_bipartite(
            n_per_type,
            n_per_type,
            n_edges,
            src_exponent=exponent,
            dst_exponent=exponent,
            seed=rng,
        )
        edges[Relation(src_t, f"rel{k}", dst_t)] = (src, dst)
    return HeteroGraph(
        num_vertices={t: n_per_type for t in types},
        feature_dims={t: feature_dim for t in types},
        edges=_with_reverse(edges),
    )


@register_scenario(
    "community",
    params=(
        ScenarioParam("num_src", 1024, "source-side vertex count"),
        ScenarioParam("num_dst", 1024, "destination-side vertex count"),
        ScenarioParam("num_edges", 8192, "distinct edge count"),
        ScenarioParam("num_blocks", 16, "planted community count"),
        ScenarioParam(
            "mixing", 0.1, "cross-community edge fraction (sweep 0.0-1.0)"
        ),
        ScenarioParam("exponent", 0.8, "within-block degree skew"),
        ScenarioParam("feature_dim", 64, "raw feature dimension, both types"),
    ),
    doc="Planted-community bipartite relation; `mixing` sweeps from "
    "pure blocks (restructuring's best case) to fully unstructured "
    "(its worst).",
)
def _build_community(
    *,
    seed,
    scale,
    num_src,
    num_dst,
    num_edges,
    num_blocks,
    mixing,
    exponent,
    feature_dim,
):
    n_src = _sized(num_src, scale)
    n_dst = _sized(num_dst, scale)
    n_edges = min(_sized(num_edges, scale, minimum=1), n_src * n_dst)
    src, dst = community_bipartite(
        n_src,
        n_dst,
        n_edges,
        num_blocks=max(2, int(round(num_blocks * scale**0.5))),
        mixing=mixing,
        src_exponent=exponent,
        dst_exponent=exponent,
        seed=np.random.default_rng(seed),
    )
    return _bipartite_graph(n_src, n_dst, src, dst, feature_dim)


# ----------------------------------------------------------------------
# Adversarial stress families
# ----------------------------------------------------------------------


@register_scenario(
    "thrash",
    params=(
        ScenarioParam(
            "working_set", 512, "source vertices every destination reads"
        ),
        ScenarioParam("num_dst", 64, "destination vertex count"),
        ScenarioParam("feature_dim", 64, "raw feature dimension, both types"),
    ),
    doc="Worst-case buffer thrash: a complete bipartite relation makes "
    "the NA trace a cyclic scan over `working_set` sources, the exact "
    "LRU pathology — every access with working_set above the buffer "
    "capacity misses, maximizing reuse distance.",
)
def _build_thrash(*, seed, scale, working_set, num_dst, feature_dim):
    n_src = _sized(working_set, scale)
    n_dst = _sized(num_dst, scale)
    # Every destination reads every source, so the destination-major NA
    # trace is [0..n_src) repeated n_dst times: a pure cyclic scan.
    src = np.tile(np.arange(n_src, dtype=np.int64), n_dst)
    dst = np.repeat(np.arange(n_dst, dtype=np.int64), n_src)
    return _bipartite_graph(
        n_src, n_dst, src, dst, feature_dim, relation_name="scans"
    )


@register_scenario(
    "uniform",
    params=(
        ScenarioParam("num_dst", 1024, "destination vertex count"),
        ScenarioParam("degree", 4, "in-degree of every destination"),
        ScenarioParam("feature_dim", 64, "raw feature dimension, both types"),
    ),
    doc="Uniform no-reuse baseline: every source feeds exactly one "
    "destination, so each feature is fetched once and any redundant "
    "DRAM access is a simulator bug. Single-direction by design — a "
    "reverse relation would reintroduce destination-feature reuse.",
)
def _build_uniform(*, seed, scale, num_dst, degree, feature_dim):
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    n_dst = _sized(num_dst, scale)
    n_src = n_dst * degree
    # Disjoint source blocks per destination; the id permutation keeps
    # vertex id decorrelated from position, as in real datasets.
    src = np.random.default_rng(seed).permutation(n_src).astype(np.int64)
    dst = np.repeat(np.arange(n_dst, dtype=np.int64), degree)
    relation = Relation("src", "feeds", "dst")
    return HeteroGraph(
        num_vertices={"src": n_src, "dst": n_dst},
        feature_dims={"src": feature_dim, "dst": feature_dim},
        edges={relation: (src, dst)},
    )


@register_scenario(
    "star",
    params=(
        ScenarioParam("num_leaves", 2048, "leaf vertex count"),
        ScenarioParam("num_hubs", 1, "hub vertex count"),
        ScenarioParam("feature_dim", 64, "raw feature dimension, both types"),
    ),
    doc="Single-hub star relations: every leaf attaches to one of "
    "`num_hubs` hubs, the degenerate-skew extreme — hub-side "
    "aggregation touches every leaf feature exactly once while the "
    "reverse direction is maximally hot.",
)
def _build_star(*, seed, scale, num_leaves, num_hubs, feature_dim):
    if num_hubs < 1:
        raise ValueError(f"num_hubs must be positive, got {num_hubs}")
    n_leaves = _sized(num_leaves, scale)
    n_hubs = min(_sized(num_hubs, scale, minimum=1), n_leaves)
    # Hub assignment is a permutation mod n_hubs: balanced loads, with
    # leaf id decorrelated from hub membership.
    perm = np.random.default_rng(seed).permutation(n_leaves).astype(np.int64)
    src = np.arange(n_leaves, dtype=np.int64)
    dst = perm % n_hubs
    relation = Relation("leaf", "orbits", "hub")
    return HeteroGraph(
        num_vertices={"leaf": n_leaves, "hub": n_hubs},
        feature_dims={"leaf": feature_dim, "hub": feature_dim},
        edges=_with_reverse({relation: (src, dst)}),
    )
