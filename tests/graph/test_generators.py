"""Tests for the synthetic bipartite generators."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.graph.generators import (
    WeightedSampler,
    chung_lu_bipartite,
    community_bipartite,
    configuration_bipartite,
    power_law_weights,
)


class TestPowerLawWeights:
    def test_normalized(self):
        w = power_law_weights(100, 0.8)
        assert w.sum() == pytest.approx(1.0)

    def test_zero_exponent_uniform(self):
        w = power_law_weights(10, 0.0)
        assert np.allclose(w, 0.1)

    def test_larger_exponent_more_skew(self):
        mild = power_law_weights(100, 0.3)
        steep = power_law_weights(100, 1.5)
        assert steep.max() > mild.max()

    def test_shuffle_changes_order_not_values(self):
        rng = np.random.default_rng(0)
        w = power_law_weights(50, 1.0, rng)
        assert np.allclose(np.sort(w), np.sort(power_law_weights(50, 1.0)))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            power_law_weights(0, 0.5)
        with pytest.raises(ValueError):
            power_law_weights(5, -1.0)


def _skewed_weights(n, exponent, zero_share, seed):
    """Shuffled power-law weights with a share of them zeroed, summing to 1."""
    rng = np.random.default_rng(seed)
    weights = power_law_weights(n, exponent, rng)
    zeroed = rng.random(n) < zero_share
    zeroed[rng.integers(n)] = False  # at least one weight stays positive
    weights[zeroed] = 0.0
    return weights / weights.sum()


weight_cases = dict(
    n=st.integers(1, 3000),
    exponent=st.floats(0.0, 3.0),
    zero_share=st.sampled_from([0.0, 1 / 3, 0.9]),
    seed=st.integers(0, 2**32 - 1),
)


class TestWeightedSampler:
    """The guide-table sampler against its oracle, ``Generator.choice``."""

    @given(size=st.integers(0, 3000), **weight_cases)
    @example(n=1, exponent=0.0, zero_share=0.0, seed=0, size=40)
    @example(n=3000, exponent=3.0, zero_share=1 / 3, seed=1, size=3000)
    @example(n=50, exponent=1.0, zero_share=0.9, seed=2, size=0)
    @settings(max_examples=150, deadline=None)
    def test_same_picks_and_stream_as_choice(
        self, n, exponent, zero_share, seed, size
    ):
        weights = _skewed_weights(n, exponent, zero_share, seed)
        oracle = np.random.default_rng(seed + 1)
        rng = np.random.default_rng(seed + 1)
        expected = oracle.choice(n, size=size, p=weights)
        picks = WeightedSampler(weights)(rng, size)
        assert picks.dtype == expected.dtype
        assert np.array_equal(picks, expected)
        assert rng.bit_generator.state == oracle.bit_generator.state

    @given(**weight_cases)
    @example(n=1, exponent=0.0, zero_share=0.0, seed=0)
    @example(n=3000, exponent=0.0, zero_share=0.0, seed=1)
    @settings(max_examples=100, deadline=None)
    def test_lookup_exact_at_every_edge(self, n, exponent, zero_share, seed):
        """Keys on and beside every cdf entry and bucket edge."""
        weights = _skewed_weights(n, exponent, zero_share, seed)
        sampler = WeightedSampler(weights)
        # Exactness rests on a power-of-two bucket count: the products
        # ``cdf * K`` and ``u * K`` then never round.
        num_buckets = sampler.num_buckets
        assert num_buckets >= 4 * n
        assert num_buckets & (num_buckets - 1) == 0
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        assert np.array_equal(sampler.cdf, cdf)
        edges = np.arange(num_buckets) / num_buckets
        keys = np.concatenate(
            [
                cdf,
                np.nextafter(cdf, 0.0),
                np.nextafter(cdf, 1.0),
                edges,
                np.nextafter(edges, 0.0),
                np.nextafter(edges, 1.0),
            ]
        )
        keys = keys[(keys >= 0.0) & (keys < 1.0)]
        assert np.array_equal(
            sampler.lookup(keys), cdf.searchsorted(keys, side="right")
        )

    def test_values_map_like_choice(self):
        values = np.array([7, 3, 11, 5], dtype=np.int64)
        weights = np.array([0.1, 0.0, 0.6, 0.3])
        oracle = np.random.default_rng(8)
        rng = np.random.default_rng(8)
        expected = oracle.choice(values, size=500, p=weights)
        assert np.array_equal(
            values[WeightedSampler(weights)(rng, 500)], expected
        )


class TestChungLu:
    def test_exact_edge_count(self):
        src, dst = chung_lu_bipartite(50, 40, 300, seed=1)
        assert len(src) == len(dst) == 300

    def test_edges_distinct(self):
        src, dst = chung_lu_bipartite(30, 30, 200, seed=2)
        assert len({(s, d) for s, d in zip(src.tolist(), dst.tolist())}) == 200

    def test_ids_in_range(self):
        src, dst = chung_lu_bipartite(20, 10, 50, seed=3)
        assert src.max() < 20 and src.min() >= 0
        assert dst.max() < 10 and dst.min() >= 0

    def test_deterministic(self):
        a = chung_lu_bipartite(25, 25, 100, seed=7)
        b = chung_lu_bipartite(25, 25, 100, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_zero_edges(self):
        src, dst = chung_lu_bipartite(5, 5, 0)
        assert len(src) == 0

    def test_full_density(self):
        src, dst = chung_lu_bipartite(4, 4, 16, seed=0)
        assert len(src) == 16

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError, match="cannot place"):
            chung_lu_bipartite(3, 3, 10)

    @given(
        n_src=st.integers(2, 30),
        n_dst=st.integers(2, 30),
        frac=st.floats(0.05, 0.9),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_simple_graph(self, n_src, n_dst, frac, seed):
        n_edges = max(1, int(n_src * n_dst * frac))
        src, dst = chung_lu_bipartite(n_src, n_dst, n_edges, seed=seed)
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert len(pairs) == n_edges
        assert all(0 <= s < n_src and 0 <= d < n_dst for s, d in pairs)


class TestCommunity:
    def test_exact_edge_count_and_range(self):
        src, dst = community_bipartite(80, 60, 400, num_blocks=8, seed=1)
        assert len(src) == 400
        assert src.max() < 80 and dst.max() < 60

    def test_deterministic(self):
        a = community_bipartite(40, 40, 150, seed=9)
        b = community_bipartite(40, 40, 150, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_community_structure_exists(self):
        """Most edges stay within their planted block."""
        src, dst = community_bipartite(
            200, 200, 1500, num_blocks=8, mixing=0.05, seed=5
        )
        # Recover blocks by re-deriving the generator's assignment.
        rng = np.random.default_rng(5)
        src_block = rng.permutation(np.arange(200, dtype=np.int64) % 8)
        dst_block = rng.permutation(np.arange(200, dtype=np.int64) % 8)
        same = (src_block[src] == dst_block[dst]).mean()
        assert same > 0.7, f"only {same:.0%} of edges intra-block"

    def test_mixing_one_is_unstructured(self):
        src, dst = community_bipartite(50, 50, 300, mixing=1.0, seed=2)
        assert len(src) == 300

    def test_invalid_mixing_rejected(self):
        with pytest.raises(ValueError, match="mixing"):
            community_bipartite(10, 10, 5, mixing=1.5)

    def test_invalid_blocks_rejected(self):
        with pytest.raises(ValueError, match="num_blocks"):
            community_bipartite(10, 10, 5, num_blocks=0)

    def test_zero_mixing_infeasible_request_rejected_eagerly(self):
        # 10x10 with 5 pure blocks reaches only 5 * (2*2) = 20 pairs;
        # asking for more must fail fast, not redraw forever.
        with pytest.raises(ValueError, match="cannot reliably place"):
            community_bipartite(10, 10, 21, num_blocks=5, mixing=0.0)
        src, dst = community_bipartite(10, 10, 20, num_blocks=5, mixing=0.0)
        assert len(src) == 20

    def test_starved_mixing_rejected_eagerly(self):
        # Within-block capacity covers 20 of 60 requested edges; at
        # mixing=0.01 the ~40 cross edges would take pathologically
        # many redraw rounds — fail fast instead of spinning.
        with pytest.raises(ValueError, match="cannot reliably place"):
            community_bipartite(10, 10, 60, num_blocks=5, mixing=0.01)
        # Ample mixing makes the same request fine.
        src, dst = community_bipartite(10, 10, 60, num_blocks=5, mixing=0.9)
        assert len(src) == 60

    def test_blocks_capped_to_sides(self):
        src, dst = community_bipartite(3, 50, 30, num_blocks=16, seed=1)
        assert len(src) == 30


class TestSeededSweepProperties:
    """Property-based sweeps over the full generator parameter space.

    The scenario catalog generates workloads on demand from these
    functions, so the invariants the catalog relies on — exact edge
    counts, normalized weights, bit-identical regeneration from one
    seed, and id-degree decorrelation under a shuffling rng — are
    pinned here over randomized (size, skew, seed) sweeps.
    """

    @given(
        n=st.integers(1, 500),
        exponent=st.floats(0.0, 2.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_weights_normalize_and_stay_positive(self, n, exponent):
        weights = power_law_weights(n, exponent)
        assert weights.shape == (n,)
        assert weights.sum() == pytest.approx(1.0)
        assert (weights > 0).all()
        # Unshuffled weights descend: rank i is at least as hot as i+1.
        assert (np.diff(weights) <= 1e-15).all()

    @given(
        n=st.integers(2, 500),
        exponent=st.floats(0.0, 2.5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_shuffled_weights_normalize_identically(self, n, exponent, seed):
        shuffled = power_law_weights(
            n, exponent, np.random.default_rng(seed)
        )
        assert shuffled.sum() == pytest.approx(1.0)
        assert np.allclose(
            np.sort(shuffled), np.sort(power_law_weights(n, exponent))
        )

    @given(
        n_src=st.integers(2, 40),
        n_dst=st.integers(2, 40),
        frac=st.floats(0.05, 0.8),
        exponent=st.floats(0.0, 1.2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_chung_lu_edge_count_matches_target(
        self, n_src, n_dst, frac, exponent, seed
    ):
        n_edges = max(1, int(n_src * n_dst * frac))
        src, dst = chung_lu_bipartite(
            n_src,
            n_dst,
            n_edges,
            src_exponent=exponent,
            dst_exponent=exponent,
            seed=seed,
        )
        assert len(src) == len(dst) == n_edges

    @given(
        n_src=st.integers(2, 60),
        n_dst=st.integers(2, 60),
        frac=st.floats(0.05, 0.6),
        blocks=st.integers(1, 12),
        mixing=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_community_edge_count_matches_target(
        self, n_src, n_dst, frac, blocks, mixing, seed
    ):
        # With little or no mixing only within-block pairs are (or are
        # reliably) reachable; bound the request by that capacity,
        # which is deterministic in the sizes (membership is shuffled,
        # block sizes are not).
        b = min(blocks, n_src, n_dst)
        src_sizes = np.bincount(np.arange(n_src) % b, minlength=b)
        dst_sizes = np.bincount(np.arange(n_dst) % b, minlength=b)
        reachable = int((src_sizes * dst_sizes).sum())
        n_edges = min(max(1, int(n_src * n_dst * frac)), reachable)
        src, dst = community_bipartite(
            n_src, n_dst, n_edges, num_blocks=blocks, mixing=mixing, seed=seed
        )
        assert len(src) == n_edges
        assert len({(s, d) for s, d in zip(src.tolist(), dst.tolist())}) == (
            n_edges
        )

    @pytest.mark.parametrize(
        "generator,kwargs",
        [
            (chung_lu_bipartite, dict(src_exponent=1.1, dst_exponent=0.4)),
            (community_bipartite, dict(num_blocks=6, mixing=0.2)),
        ],
    )
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_same_seed_bit_identical(self, generator, kwargs, seed):
        a = generator(37, 23, 150, seed=seed, **kwargs)
        b = generator(37, 23, 150, seed=seed, **kwargs)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert a[0].dtype == np.int64 and a[1].dtype == np.int64

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_configuration_same_seed_bit_identical(self, seed):
        src_deg = np.array([5, 3, 2, 2, 1, 1, 1, 1])
        dst_deg = np.array([4, 4, 3, 2, 2, 1])
        a = configuration_bipartite(src_deg, dst_deg, seed=seed)
        b = configuration_bipartite(src_deg, dst_deg, seed=seed)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_id_degree_decorrelated_when_rng_given(self, seed):
        """With a shuffling rng, low vertex ids are not the hot ones."""
        n = 400
        weights = power_law_weights(
            n, 1.5, np.random.default_rng(seed)
        )
        ids = np.arange(n)
        # Rank correlation between id and weight is near zero for a
        # uniform shuffle (bound is ~8 sigma for n=400).
        rank = np.empty(n)
        rank[np.argsort(weights)] = ids
        corr = np.corrcoef(ids, rank)[0, 1]
        assert abs(corr) < 0.4
        # And the hottest decile is not id-clustered at the front,
        # unlike the unshuffled weights (where it is exactly 0..39).
        hot = np.argsort(weights)[-n // 10:]
        assert hot.mean() > n * 0.15

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_unshuffled_weights_are_id_correlated(self, seed):
        """Control: without an rng, vertex id 0 is always hottest."""
        weights = power_law_weights(400, 1.5)
        assert weights.argmax() == 0


class TestConfiguration:
    def test_degree_totals_must_match(self):
        with pytest.raises(ValueError, match="equal totals"):
            configuration_bipartite(np.array([2, 2]), np.array([1]))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            configuration_bipartite(np.array([-1, 3]), np.array([1, 1]))

    def test_degrees_bounded_by_request(self):
        src_deg = np.array([3, 2, 1])
        dst_deg = np.array([2, 2, 2])
        src, dst = configuration_bipartite(src_deg, dst_deg, seed=0)
        realized = np.bincount(src, minlength=3)
        assert (realized <= src_deg).all()
