"""Equivalence tests: vectorized replay engines vs the legacy loops.

The replay engine must be bit-exact against the element-at-a-time
reference paths (``naive=True`` / scalar loops): same hits, misses,
evictions, fetch counts, replacement histograms, ordered miss streams,
and identical final LRU state -- over randomized traces covering
varying capacities, flush epochs, duplicate-heavy and scan patterns.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.buffer import FeatureBuffer
from repro.memory.cache import CacheConfig, SetAssociativeCache
from repro.memory.replay import TraceArtifact, count_leq_before, replay_lru


def make_buffer(entries, entry_bytes=8) -> FeatureBuffer:
    return FeatureBuffer(entries * entry_bytes, entry_bytes)


def assert_buffers_equal(a: FeatureBuffer, b: FeatureBuffer) -> None:
    assert a.stats.hits == b.stats.hits
    assert a.stats.misses == b.stats.misses
    assert a.stats.evictions == b.stats.evictions
    assert a.stats.bytes_from_dram == b.stats.bytes_from_dram
    assert list(a._resident) == list(b._resident)
    assert a.fetch_counts() == b.fetch_counts()
    assert a.replacement_histogram() == b.replacement_histogram()
    assert a.redundant_accesses() == b.redundant_accesses()


class TestCountLeqBefore:
    def test_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(0, 300))
            keys = rng.integers(0, max(1, int(rng.integers(1, 40))), n)
            got = count_leq_before(keys)
            want = np.array(
                [(keys[:i] <= keys[i]).sum() for i in range(n)], dtype=np.int64
            )
            assert np.array_equal(got, want)

    def test_sorted_and_reversed(self):
        n = 200
        asc = np.arange(n)
        assert np.array_equal(count_leq_before(asc), np.arange(n))
        assert np.array_equal(count_leq_before(asc[::-1]), np.zeros(n, np.int64))

    def test_too_large_keys_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            count_leq_before(np.array([2**62, 0], dtype=np.int64))


TRACE_KINDS = ("random", "duplicate_heavy", "scan", "scan_mix")


def _trace(rng, kind, n):
    if kind == "duplicate_heavy":
        return rng.integers(0, 4, n).astype(np.int64)
    if kind == "scan":
        # cyclic scan: the LRU worst case (thrashes any smaller buffer)
        uni = int(rng.integers(2, 20))
        return (np.arange(n, dtype=np.int64) % uni)
    if kind == "scan_mix":
        uni = int(rng.integers(2, 20))
        scan = np.arange(n, dtype=np.int64) % uni
        noise = rng.integers(0, 30, n).astype(np.int64)
        pick = rng.random(n) < 0.5
        return np.where(pick, scan, noise)
    return rng.integers(0, int(rng.integers(1, 50)), n).astype(np.int64)


class TestFeatureBufferEquivalence:
    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_randomized_vs_naive(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
        for trial in range(40):
            entries = int(rng.integers(1, 24))
            a = make_buffer(entries)
            b = make_buffer(entries)
            for call in range(3):
                n = int(rng.integers(0, 150))
                trace = _trace(rng, kind, n)
                ma, ia = a.access_many(trace, collect_misses=True, naive=True)
                mb, ib = b.access_many(trace, collect_misses=True)
                assert ma == mb, (kind, trial, call)
                assert ia.tolist() == ib.tolist(), "miss stream diverged"
                if rng.random() < 0.3:  # flush epoch boundary
                    a.flush()
                    b.flush()
            assert_buffers_equal(a, b)

    def test_interleaved_scalar_and_batch(self):
        rng = np.random.default_rng(5)
        a = make_buffer(5)
        b = make_buffer(5)
        for _ in range(30):
            if rng.random() < 0.5:
                v = int(rng.integers(0, 12))
                assert a.access(v) == b.access(v)
            else:
                trace = rng.integers(0, 12, int(rng.integers(0, 40))).astype(
                    np.int64
                )
                assert a.access_many(trace, naive=True) == b.access_many(trace)
        assert_buffers_equal(a, b)

    def test_artifact_shared_across_capacities(self):
        rng = np.random.default_rng(9)
        trace = rng.integers(0, 60, 400).astype(np.int64)
        artifact = TraceArtifact(trace)
        for entries in (1, 3, 17, 64, 100):
            a = make_buffer(entries)
            b = make_buffer(entries)
            a.access_many(trace, naive=True)
            b.access_many(trace, artifact=artifact)
            assert_buffers_equal(a, b)

    def test_replay_lru_state_roundtrip(self):
        trace = np.array([1, 2, 3, 1, 4, 2, 2, 5], dtype=np.int64)
        res = replay_lru(TraceArtifact(trace), 3, np.array([7, 1], np.int64))
        # 1 carried at MRU: hits; the rest replays as a 3-entry LRU
        assert res.hit_mask.tolist() == [
            True, False, False, True, False, False, True, False,
        ]
        assert res.new_state.tolist() == [4, 2, 5]
        assert res.misses == 5
        assert res.evictions == 4  # started at 2 resident, capacity 3


class TestSetAssociativeCacheEquivalence:
    @pytest.mark.parametrize("ways,sets", [(1, 1), (2, 4), (4, 2), (3, 8)])
    def test_randomized_vs_scalar(self, ways, sets):
        rng = np.random.default_rng(ways * 100 + sets)
        line = 64
        cfg = CacheConfig(size_bytes=ways * sets * line, line_bytes=line, ways=ways)
        for trial in range(25):
            a = SetAssociativeCache(cfg)
            b = SetAssociativeCache(cfg)
            for call in range(3):
                n = int(rng.integers(0, 120))
                addrs = rng.integers(0, line * 50, n).astype(np.int64)
                ref = np.array([a.access_line(int(x)) for x in addrs], bool)
                got = b.access_lines(addrs)
                assert np.array_equal(ref, got), (trial, call)
                if rng.random() < 0.25:
                    a.flush()
                    b.flush()
            assert a.stats == b.stats
            assert a.occupancy_lines == b.occupancy_lines
            for s in range(cfg.num_sets):
                assert list(a._sets[s]) == list(b._sets[s])

    def test_bulk_access_counts_misses(self):
        cfg = CacheConfig(size_bytes=4 * 4 * 64, line_bytes=64, ways=4)
        cache = SetAssociativeCache(cfg)
        assert cache.access(0, 256) == 4
        assert cache.access(0, 256) == 0


@given(
    st.lists(st.integers(0, 30), min_size=0, max_size=300),
    st.integers(1, 12),
    st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_property_buffer_equivalence(trace, entries, flush_at_third):
    """Hypothesis: vectorized replay == naive loop, with flush epochs."""
    a = make_buffer(entries)
    b = make_buffer(entries)
    arr = np.array(trace, dtype=np.int64)
    thirds = np.array_split(arr, 3)
    for k, part in enumerate(thirds):
        ma, ia = a.access_many(part, collect_misses=True, naive=True)
        mb, ib = b.access_many(part, collect_misses=True)
        assert ma == mb
        assert ia.tolist() == ib.tolist()
        if k == flush_at_third:
            a.flush()
            b.flush()
    assert_buffers_equal(a, b)


@given(st.lists(st.integers(0, 1023), min_size=0, max_size=250))
@settings(max_examples=50, deadline=None)
def test_property_cache_equivalence(addresses):
    cfg = CacheConfig(size_bytes=2 * 4 * 64, line_bytes=64, ways=2)
    a = SetAssociativeCache(cfg)
    b = SetAssociativeCache(cfg)
    arr = np.array(addresses, dtype=np.int64)
    ref = np.array([a.access_line(int(x)) for x in arr], bool)
    got = b.access_lines(arr)
    assert np.array_equal(ref, got)
    assert a.stats == b.stats
