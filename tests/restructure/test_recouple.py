"""Tests for graph recoupling (subgraph generation + scheduling)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.restructure.backbone import BackbonePartition, select_backbone_konig
from repro.restructure.matching import maximum_matching
from repro.restructure.recouple import (
    SUBGRAPH_LABELS,
    _community_schedule,
    recouple,
)
from tests.conftest import build_semantic


def _restructure(sg, budget=256):
    matching = maximum_matching(sg)
    partition = select_backbone_konig(sg, matching)
    return recouple(sg, matching, partition, community_budget=budget)


class TestRecouple:
    def test_three_subgraphs(self, make_semantic):
        sg = make_semantic(8, 8, num_edges=20, seed=1)
        result = _restructure(sg)
        assert len(result.subgraphs) == 3
        assert result.labels == SUBGRAPH_LABELS

    def test_edges_partitioned_exactly(self, make_semantic):
        sg = make_semantic(10, 10, num_edges=35, seed=2)
        result = _restructure(sg)
        result.validate()  # checks cover, partition and schedules

    def test_subgraph_roles(self, make_semantic):
        sg = make_semantic(6, 6, num_edges=15, seed=3)
        result = _restructure(sg)
        src_in = result.partition.src_in_mask
        dst_in = result.partition.dst_in_mask
        g1, g2, g3 = result.subgraphs
        assert not src_in[g1.src].any() and dst_in[g1.dst].all()
        assert src_in[g2.src].all() and dst_in[g2.dst].all()
        assert src_in[g3.src].all() and not dst_in[g3.dst].any()

    def test_invalid_partition_rejected(self, make_semantic):
        sg = make_semantic(3, 3, [(0, 0), (1, 1)])
        bad = BackbonePartition(
            src_in_mask=np.zeros(3, dtype=bool),
            dst_in_mask=np.zeros(3, dtype=bool),
        )
        with pytest.raises(ValueError, match="not a vertex cover"):
            recouple(sg, maximum_matching(sg), bad)

    def test_empty_graph(self, make_semantic):
        sg = make_semantic(3, 3, [])
        result = _restructure(sg)
        assert result.total_subgraph_edges() == 0
        result.validate()

    def test_schedule_covers_active_destinations(self, make_semantic):
        sg = make_semantic(12, 12, num_edges=40, seed=4)
        result = _restructure(sg)
        for sub, schedule in zip(result.subgraphs, result.dst_schedules):
            assert set(schedule.tolist()) == set(sub.active_dst().tolist())
            assert len(schedule) == len(set(schedule.tolist()))

    def test_invalid_budget_rejected(self, make_semantic):
        sg = make_semantic(3, 3, [(0, 0)])
        with pytest.raises(ValueError, match="budget"):
            _restructure(sg, budget=0)

    def test_leaves_without_children(self, make_semantic):
        sg = make_semantic(8, 8, num_edges=24, seed=5)
        result = _restructure(sg)
        leaves = result.leaves()
        assert sum(sub.num_edges for sub, _ in leaves) == sg.num_edges

    def test_backbone_size_property(self, make_semantic):
        sg = make_semantic(7, 7, num_edges=18, seed=6)
        result = _restructure(sg)
        assert result.backbone_size == result.matching.size  # König


def assert_walk_invariants(sg, budget):
    """Check ``_community_schedule(sg, budget)`` against the walk's spec.

    The schedule must be an int64 permutation of the active destinations
    that splits into communities: each starts at the unscheduled
    destination of highest degree (stable), and holds exactly the
    destinations reached through the sources its members absorbed, where
    a member absorbs its row's new sources only while the community has
    absorbed fewer than ``budget``. Members are taken in the schedule's
    own order; the FIFO order within a community is left to the digest
    pin in ``test_schedule_digests.py``.
    """
    schedule = _community_schedule(sg, budget)
    active = sg.active_dst()
    assert schedule.dtype == np.int64
    assert np.array_equal(np.sort(schedule), active)
    csr, csc = sg.csr, sg.csc
    seeds = active[np.argsort(-sg.dst_degrees()[active], kind="stable")]
    seeds = seeds.tolist()
    order = schedule.tolist()
    reached = np.zeros(sg.num_dst, dtype=bool)
    absorbed_src = np.zeros(sg.num_src, dtype=bool)
    next_seed = pos = 0
    while pos < len(order):
        while reached[seeds[next_seed]]:
            next_seed += 1
        assert order[pos] == seeds[next_seed], ("community seed", pos)
        reached[order[pos]] = True
        pending, absorbed = 1, 0
        while pending:
            assert pos < len(order), "community cut short"
            v = order[pos]
            assert reached[v], ("destination not reached", pos, v)
            pending -= 1
            pos += 1
            if absorbed >= budget:
                continue
            for s in csc.indices[csc.indptr[v] : csc.indptr[v + 1]].tolist():
                if absorbed_src[s]:
                    continue
                absorbed_src[s] = True
                absorbed += 1
                row = csr.indices[csr.indptr[s] : csr.indptr[s + 1]]
                fresh = np.unique(row[~reached[row]])
                reached[fresh] = True
                pending += len(fresh)


class TestCommunityScheduleWalk:
    """The one walk on the inputs of the former dispatch boundary."""

    def test_walk_invariants_small(self, make_semantic):
        sg = make_semantic(12, 12, num_edges=40, seed=7)
        for budget in (1, 3, 16):
            assert_walk_invariants(sg, budget)

    def test_budget_check_comes_before_each_row(self, make_semantic):
        # Seed 0 absorbs sources 0-2. At budget 3 that fills the
        # community, so destination 1 drains without reaching 3 through
        # source 3, and destination 2 seeds the next community; at
        # budget 4 destination 1's row still expands.
        edges = [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (3, 3), (4, 2), (5, 2)]
        sg = make_semantic(6, 4, edges)
        expected = {3: [0, 1, 2, 3], 4: [0, 1, 3, 2]}
        for budget, order in expected.items():
            assert _community_schedule(sg, budget).tolist() == order
            assert_walk_invariants(sg, budget)

    def test_walk_invariants_above_former_dispatch_threshold(self):
        # 3000 edges: the size at which a batched walker used to take
        # over; the one walk handles it the same way.
        rng = np.random.default_rng(11)
        num_src = num_dst = 80
        codes = rng.choice(num_src * num_dst, size=3000, replace=False)
        edges = [(int(c) // num_dst, int(c) % num_dst) for c in codes]
        sg = build_semantic(num_src, num_dst, edges)
        assert sg.num_edges >= 2048
        for budget in (1, 64, 10_000):
            assert_walk_invariants(sg, budget)


@given(
    num_src=st.integers(2, 20),
    num_dst=st.integers(2, 20),
    seed=st.integers(0, 1000),
    frac=st.floats(0.05, 0.6),
)
@settings(max_examples=80, deadline=None)
def test_property_recoupling_invariants(num_src, num_dst, seed, frac):
    """All structural invariants hold on arbitrary random graphs."""
    rng = np.random.default_rng(seed)
    max_edges = num_src * num_dst
    num_edges = max(1, int(max_edges * frac))
    codes = rng.choice(max_edges, size=num_edges, replace=False)
    edges = [(int(c) // num_dst, int(c) % num_dst) for c in codes]
    sg = build_semantic(num_src, num_dst, edges)
    result = _restructure(sg)
    result.validate()
    # No edge between Src_out and Dst_out (the defining property).
    src_in = result.partition.src_in_mask
    dst_in = result.partition.dst_in_mask
    both_out = ~src_in[sg.src] & ~dst_in[sg.dst]
    assert not both_out.any()
