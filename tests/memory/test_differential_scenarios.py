"""Differential sweep: vectorized replay vs naive reference on scenario traces.

``tests/memory/test_replay.py`` already equivalence-tests the replay
engines on synthetic random traces; this sweep feeds them the *actual*
NA access streams of scenario-catalog workloads — including the
adversarial stress families (worst-case cyclic thrash, no-reuse
uniform, single-hub star) and a full skew sweep — and asserts the
vectorized paths (`FeatureBuffer.access_many`,
`SetAssociativeCache.access_lines`) are bit-exact against the
element-at-a-time references. The same traces feed the FIFO
hash-conflict differential in ``tests/restructure/test_matching_vec.py``.
"""

import numpy as np
import pytest

from repro.graph.semantic import build_semantic_graphs
from repro.memory.buffer import FeatureBuffer
from repro.memory.cache import CacheConfig, SetAssociativeCache
from repro.scenarios import build_scenario

#: Tiny sweep points per family, stress cases included. Sizes are kept
#: small enough that every replay runs in milliseconds while still
#: overflowing the deliberately undersized structures below.
SCENARIO_REFS = (
    "scale:base=imdb,factor=0.04",
    "skew:num_src=128,num_dst=96,num_edges=768,exponent=0.0",
    "skew:num_src=128,num_dst=96,num_edges=768,exponent=1.0",
    "skew:num_src=128,num_dst=96,num_edges=768,exponent=2.0",
    "relations:num_relations=4,vertices_per_type=64,edges_per_relation=160",
    "community:num_src=96,num_dst=96,num_edges=512,mixing=0.3",
    "thrash:working_set=72,num_dst=9",
    "uniform:num_dst=64,degree=3",
    "star:num_leaves=128,num_hubs=2",
)


def _traces(ref: str) -> list[np.ndarray]:
    """Per-semantic-graph NA traces of one scenario workload."""
    graph = build_scenario(ref, seed=13)
    return [sg.na_trace() for sg in build_semantic_graphs(graph)]


def _buffer(entries: int) -> FeatureBuffer:
    return FeatureBuffer(entries * 16, 16)


@pytest.mark.parametrize("ref", SCENARIO_REFS)
class TestFeatureBufferDifferential:
    @pytest.mark.parametrize("entries", [1, 7, 64])
    def test_stats_and_state_bit_exact(self, ref, entries):
        naive = _buffer(entries)
        fast = _buffer(entries)
        for trace in _traces(ref):
            m_naive, ids_naive = naive.access_many(
                trace, collect_misses=True, naive=True
            )
            m_fast, ids_fast = fast.access_many(trace, collect_misses=True)
            assert m_naive == m_fast
            assert np.array_equal(ids_naive, ids_fast), "miss stream diverged"
            assert list(naive._resident) == list(fast._resident)
        assert naive.stats.hits == fast.stats.hits
        assert naive.stats.misses == fast.stats.misses
        assert naive.stats.evictions == fast.stats.evictions
        assert naive.stats.bytes_from_dram == fast.stats.bytes_from_dram
        assert naive.fetch_counts() == fast.fetch_counts()
        assert naive.replacement_histogram() == fast.replacement_histogram()
        assert naive.redundant_accesses() == fast.redundant_accesses()

    def test_flush_epochs_bit_exact(self, ref):
        naive = _buffer(16)
        fast = _buffer(16)
        for trace in _traces(ref):
            assert naive.access_many(trace, naive=True) == fast.access_many(
                trace
            )
            naive.flush()
            fast.flush()
        assert naive.fetch_counts() == fast.fetch_counts()


class TestStressSemantics:
    def test_thrash_scenario_defeats_small_buffers(self):
        """Every access of the cyclic scan misses below the working set."""
        # Forward and reverse traces are both 72*9 long; the forward
        # one (the cyclic scan) is the one with 72 distinct ids.
        (trace,) = [
            t
            for t in _traces("thrash:working_set=72,num_dst=9")
            if len(np.unique(t)) == 72
        ]
        small = _buffer(71)  # one entry short of the working set
        misses = small.access_many(trace)
        assert misses == len(trace)  # 100% thrash: LRU's exact pathology
        big = _buffer(72)
        assert big.access_many(trace) == 72  # compulsory misses only

    def test_uniform_scenario_has_zero_redundant_fetches(self):
        buffer = _buffer(8)
        for trace in _traces("uniform:num_dst=64,degree=3"):
            buffer.access_many(trace)
        assert buffer.redundant_accesses() == 0
        assert buffer.stats.hits == 0


@pytest.mark.parametrize("ref", SCENARIO_REFS)
class TestCacheDifferential:
    def test_hit_mask_stats_and_sets_bit_exact(self, ref):
        config = CacheConfig(size_bytes=4096, line_bytes=64, ways=4)
        scalar = SetAssociativeCache(config)
        batch = SetAssociativeCache(config)
        for trace in _traces(ref):
            addresses = trace * 64  # one line per vertex feature block
            want = np.array(
                [scalar.access_line(int(a)) for a in addresses], dtype=bool
            )
            got = batch.access_lines(addresses)
            assert np.array_equal(want, got)
        assert scalar.stats.hits == batch.stats.hits
        assert scalar.stats.misses == batch.stats.misses
        assert scalar.stats.evictions == batch.stats.evictions
        assert scalar.stats.bytes_from_dram == batch.stats.bytes_from_dram
        assert scalar._sets == batch._sets
        assert scalar.occupancy_lines == batch.occupancy_lines
