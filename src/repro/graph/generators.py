"""Synthetic bipartite graph generators.

The paper evaluates on DGL's ACM / IMDB / DBLP heterogeneous datasets.
Those exact files are not redistributable here, so
:mod:`repro.graph.datasets` regenerates each relation with a Chung-Lu
style bipartite generator matched to the published vertex counts, edge
counts and degree skew. Buffer thrashing -- the phenomenon the paper
targets -- depends on exactly those statistics (working-set size vs.
buffer capacity, and degree skew driving feature reuse distance), so the
substitution preserves the behaviour under study.

Every weighted draw goes through :class:`WeightedSampler`, an exact
guide-table lookup (Chen & Asau, 1974) that returns the same picks as
``rng.choice(len(w), size=n, p=w)`` and consumes the same
``rng.random(n)``, so each generator's output for a given seed is the
one ``Generator.choice`` would give.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import sorted_unique

__all__ = [
    "WeightedSampler",
    "power_law_weights",
    "chung_lu_bipartite",
    "community_bipartite",
    "configuration_bipartite",
]


class WeightedSampler:
    """Weighted draws with replacement, pick for pick ``Generator.choice``.

    ``Generator.choice(len(w), size=n, p=w)`` computes
    ``cdf = w.cumsum(); cdf /= cdf[-1]``, draws ``u = rng.random(n)`` and
    binary-searches each key: ``cdf.searchsorted(u, side="right")``,
    the first index whose cdf exceeds ``u``. A guide table (Chen &
    Asau, 1974) replaces the search. It splits ``[0, 1)`` into ``K``
    equal buckets and records for each bucket edge ``k / K`` how many
    cdf entries lie at or below it. A key in bucket ``k`` starts at
    that count, which never passes its answer, and steps forward while
    the cdf entry is ``<= u``. ``K`` is a power of two of at least four
    buckets per weight, so ``cdf * K`` and ``u * K`` are exact, every
    edge comparison is too, and a key takes about one step. Build one
    sampler per weight vector and reuse it across redraw rounds.
    """

    __slots__ = ("cdf", "num_buckets", "guide")

    def __init__(self, weights: np.ndarray) -> None:
        cdf = np.cumsum(weights, dtype=np.float64)
        cdf /= cdf[-1]
        num_buckets = 1 << (4 * len(cdf) - 1).bit_length()
        self.cdf = cdf
        self.num_buckets = num_buckets
        #: ``guide[k]`` = number of cdf entries ``<= k / num_buckets``.
        self.guide = np.cumsum(
            np.bincount(
                np.ceil(cdf * num_buckets).astype(np.intp),
                minlength=num_buckets + 1,
            )
        )

    def lookup(self, u: np.ndarray) -> np.ndarray:
        """``cdf.searchsorted(u, side="right")`` for keys in ``[0, 1)``."""
        cdf = self.cdf
        idx = self.guide[(u * self.num_buckets).astype(np.intp)]
        active = np.flatnonzero(cdf[idx] <= u)
        while len(active):
            step = idx[active] + 1
            idx[active] = step
            active = active[cdf[step] <= u[active]]
        return idx

    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` indices, as ``rng.choice(len(w), size, p=w)``."""
        return self.lookup(rng.random(size))


def power_law_weights(
    n: int, exponent: float, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Zipf-like sampling weights ``w_i \\propto (i + 1)^{-exponent}``.

    Args:
        n: number of vertices.
        exponent: skew; 0 gives uniform weights, larger is more skewed.
            Real HetG relations sit around 0.5-1.2.
        rng: if given, the weight/rank assignment is shuffled so vertex
            id does not correlate with degree (as in real datasets).

    Returns:
        Weights normalized to sum to 1.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    if rng is not None:
        rng.shuffle(weights)
    return weights / weights.sum()


def chung_lu_bipartite(
    num_src: int,
    num_dst: int,
    num_edges: int,
    *,
    src_exponent: float = 0.8,
    dst_exponent: float = 0.8,
    seed: int | np.random.Generator = 0,
    max_rounds: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample a simple bipartite graph with skewed degree distributions.

    Edges are drawn with endpoint probabilities proportional to per-side
    power-law weights (a bipartite Chung-Lu model), de-duplicated, and
    re-drawn until exactly ``num_edges`` distinct edges exist.

    Args:
        num_src: source-side vertex count.
        num_dst: destination-side vertex count.
        num_edges: number of distinct edges to produce.
        src_exponent: degree-skew exponent on the source side.
        dst_exponent: degree-skew exponent on the destination side.
        seed: integer seed or an existing :class:`numpy.random.Generator`.
        max_rounds: safety bound on redraw rounds.

    Returns:
        ``(src, dst)`` int64 arrays of length ``num_edges``, sorted in
        ``(src, dst)`` order for determinism.
    """
    if num_edges < 0:
        raise ValueError("num_edges must be non-negative")
    capacity = num_src * num_dst
    if num_edges > capacity:
        raise ValueError(
            f"cannot place {num_edges} distinct edges in a "
            f"{num_src}x{num_dst} bipartite graph"
        )
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    if num_edges == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    draw_src = WeightedSampler(power_law_weights(num_src, src_exponent, rng))
    draw_dst = WeightedSampler(power_law_weights(num_dst, dst_exponent, rng))

    # Accumulate distinct edges as packed codes src * num_dst + dst.
    codes = np.empty(0, dtype=np.int64)
    for _ in range(max_rounds):
        missing = num_edges - len(codes)
        if missing == 0:
            break
        # Oversample to absorb duplicates; dense graphs need more slack.
        fill = len(codes) / capacity
        batch = int(missing * (2.0 + 8.0 * fill)) + 16
        s = draw_src(rng, batch)
        d = draw_dst(rng, batch)
        new_codes = s.astype(np.int64) * num_dst + d
        codes = sorted_unique(np.concatenate([codes, new_codes]))
        if len(codes) > num_edges:
            # Keep a deterministic random subset of the required size.
            keep = rng.choice(len(codes), size=num_edges, replace=False)
            codes = np.sort(codes[keep])
    else:  # pragma: no cover - only reachable with adversarial params
        raise RuntimeError(
            "edge sampling did not converge; lower num_edges or exponents"
        )

    src = codes // num_dst
    dst = codes % num_dst
    return src.astype(np.int64), dst.astype(np.int64)


def community_bipartite(
    num_src: int,
    num_dst: int,
    num_edges: int,
    *,
    num_blocks: int = 16,
    mixing: float = 0.15,
    src_exponent: float = 0.8,
    dst_exponent: float = 0.8,
    seed: int | np.random.Generator = 0,
    max_rounds: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Bipartite graph with planted communities and skewed degrees.

    Real heterogeneous graphs cluster: an author's papers share terms,
    a movie's actors share genres. The restructuring method's payoff is
    exactly this latent community structure, so the synthetic datasets
    must have it too. This generator plants ``num_blocks`` communities:
    every edge picks a block, draws its source from that block (with a
    within-block power-law), and draws its destination from the same
    block with probability ``1 - mixing`` (otherwise from anywhere).

    Vertex ids are assigned randomly with respect to blocks, so no
    consumer can exploit communities through id order alone -- they
    must be *discovered*, as GDR-HGNN does.

    Every catalog dataset is generated here, so the output for a given
    seed is pinned across commits (``tests/graph/test_generator_digests.py``).
    Optimisations must keep every ``rng`` draw in the same order with
    the same sizes: each weighted draw consumes ``rng.random(n)``
    exactly where ``rng.choice(..., p=...)`` did, through a
    :class:`WeightedSampler` built once per weight vector. Only where
    draws are placed, and how they are deduplicated, may change.

    Args:
        num_src: source-side vertex count.
        num_dst: destination-side vertex count.
        num_edges: number of distinct edges.
        num_blocks: planted community count.
        mixing: fraction of cross-community edges (0 = pure blocks).
        src_exponent: within-block degree skew on the source side.
        dst_exponent: within-block degree skew on the destination side.
        seed: integer seed or generator.
        max_rounds: safety bound on redraw rounds.

    Returns:
        ``(src, dst)`` int64 arrays of length ``num_edges``.
    """
    if not 0.0 <= mixing <= 1.0:
        raise ValueError("mixing must be in [0, 1]")
    if num_blocks <= 0:
        raise ValueError("num_blocks must be positive")
    capacity = num_src * num_dst
    if num_edges > capacity:
        raise ValueError(
            f"cannot place {num_edges} distinct edges in a "
            f"{num_src}x{num_dst} bipartite graph"
        )
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    if num_edges == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    num_blocks = min(num_blocks, num_src, num_dst)

    # Edges beyond the within-block pair capacity can only come from
    # cross-community draws, which arrive at rate ~``mixing`` per
    # sample. Detect requests that are infeasible (mixing 0) or
    # pathologically slow (deficit far above the expected cross-edge
    # supply) eagerly, instead of redrawing for minutes before the
    # max_rounds RuntimeError. Block *sizes* are fixed by the
    # round-robin assignment below (the permutation only shuffles
    # membership), so the capacity is exact and rng-independent.
    src_sizes = np.bincount(
        np.arange(num_src, dtype=np.int64) % num_blocks,
        minlength=num_blocks,
    )
    dst_sizes = np.bincount(
        np.arange(num_dst, dtype=np.int64) % num_blocks,
        minlength=num_blocks,
    )
    reachable_within = int((src_sizes * dst_sizes).sum())
    deficit = num_edges - reachable_within
    if deficit > 10.0 * mixing * num_edges:
        raise ValueError(
            f"cannot reliably place {num_edges} distinct edges: "
            f"{num_blocks} blocks hold {reachable_within} within-block "
            f"pairs and mixing={mixing:g} supplies too few cross-block "
            "edges to cover the rest; raise mixing or lower num_edges"
        )

    # Random block assignment (ids carry no community information).
    src_block = rng.permutation(
        np.arange(num_src, dtype=np.int64) % num_blocks
    )
    dst_block = rng.permutation(
        np.arange(num_dst, dtype=np.int64) % num_blocks
    )
    src_members = [np.flatnonzero(src_block == b) for b in range(num_blocks)]
    dst_members = [np.flatnonzero(dst_block == b) for b in range(num_blocks)]
    draw_src_member = [
        WeightedSampler(power_law_weights(len(m), src_exponent, rng))
        for m in src_members
    ]
    draw_dst_member = [
        WeightedSampler(power_law_weights(len(m), dst_exponent, rng))
        for m in dst_members
    ]
    # Larger communities attract proportionally more edges, with a mild
    # skew so community sizes vary as in real datasets.
    draw_block = WeightedSampler(power_law_weights(num_blocks, 0.5, rng))
    draw_dst_global = WeightedSampler(
        power_law_weights(num_dst, dst_exponent, rng)
    )

    codes = np.empty(0, dtype=np.int64)
    for _ in range(max_rounds):
        missing = num_edges - len(codes)
        if missing == 0:
            break
        fill = len(codes) / capacity
        batch = int(missing * (2.0 + 8.0 * fill)) + 16
        blocks = draw_block(rng, batch)
        s = np.empty(batch, dtype=np.int64)
        d = np.empty(batch, dtype=np.int64)
        cross = rng.random(batch) < mixing
        # One stable sort groups the edges by block, each block's in
        # ascending position: the slots a ``blocks == b`` mask selects.
        # Block ids fit a narrow dtype, which numpy radix-sorts.
        order = np.argsort(
            blocks.astype(np.min_scalar_type(num_blocks - 1)), kind="stable"
        )
        bounds = np.cumsum(np.bincount(blocks, minlength=num_blocks))[:-1]
        for b, sel in enumerate(np.split(order, bounds)):
            if not len(sel):
                continue
            s[sel] = src_members[b][draw_src_member[b](rng, len(sel))]
            d[sel] = dst_members[b][draw_dst_member[b](rng, len(sel))]
        n_cross = int(cross.sum())
        if n_cross:
            d[cross] = draw_dst_global(rng, n_cross)
        new_codes = s * num_dst + d
        codes = sorted_unique(np.concatenate([codes, new_codes]))
        if len(codes) > num_edges:
            keep = rng.choice(len(codes), size=num_edges, replace=False)
            codes = np.sort(codes[keep])
    else:
        # Saturated requests (num_edges at or near the reachable pair
        # capacity) stall the weighted sampler on its rarest pairs --
        # a coupon-collector tail the redraw loop cannot beat. Complete
        # deterministically: enumerate the within-block pair codes and
        # draw the shortfall uniformly from the uncollected ones. This
        # path only runs where the loop previously gave up, so every
        # converging parameter set keeps its exact historical output.
        # Enumerations are bounded before allocating anything. The
        # final allowed round may have completed the set, in which case
        # there is nothing to do.
        missing = num_edges - len(codes)
        if missing > 0:
            budget = max(1 << 22, 8 * num_edges)
            if reachable_within > budget:
                raise RuntimeError(
                    "edge sampling did not converge; lower num_edges "
                    "or exponents"
                )
            pool = sorted_unique(
                np.concatenate(
                    [
                        (
                            src_members[b][:, None] * num_dst
                            + dst_members[b][None, :]
                        ).ravel()
                        for b in range(num_blocks)
                    ]
                )
            )
            pool = pool[np.isin(pool, codes, assume_unique=True, invert=True)]
            if len(pool) < missing:
                # Cross-block edges are required; enumerate the full
                # complement when that is affordable.
                if capacity > budget:
                    raise RuntimeError(
                        "edge sampling did not converge; lower "
                        "num_edges or exponents"
                    )
                uncollected = np.ones(capacity, dtype=bool)
                uncollected[codes] = False
                pool = np.flatnonzero(uncollected)
            take = rng.choice(len(pool), size=missing, replace=False)
            codes = np.sort(np.concatenate([codes, pool[take]]))

    return (codes // num_dst).astype(np.int64), (codes % num_dst).astype(np.int64)


def configuration_bipartite(
    src_degrees: np.ndarray,
    dst_degrees: np.ndarray,
    *,
    seed: int | np.random.Generator = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Bipartite configuration model from explicit degree sequences.

    Produces a multigraph collapsed to a simple graph (duplicate stubs
    dropped), so realized degrees are close to -- but bounded by -- the
    requested sequences. Useful for tests that need exact control over
    skew.

    Args:
        src_degrees: desired degree per source vertex.
        dst_degrees: desired degree per destination vertex; must sum to
            the same total as ``src_degrees``.
        seed: integer seed or generator.

    Returns:
        ``(src, dst)`` arrays of distinct edges.
    """
    src_degrees = np.asarray(src_degrees, dtype=np.int64)
    dst_degrees = np.asarray(dst_degrees, dtype=np.int64)
    if src_degrees.sum() != dst_degrees.sum():
        raise ValueError("degree sequences must have equal totals")
    if (src_degrees < 0).any() or (dst_degrees < 0).any():
        raise ValueError("degrees must be non-negative")
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    src_stubs = np.repeat(np.arange(len(src_degrees), dtype=np.int64), src_degrees)
    dst_stubs = np.repeat(np.arange(len(dst_degrees), dtype=np.int64), dst_degrees)
    rng.shuffle(dst_stubs)
    codes = sorted_unique(src_stubs * len(dst_degrees) + dst_stubs)
    return (
        (codes // len(dst_degrees)).astype(np.int64),
        (codes % len(dst_degrees)).astype(np.int64),
    )
