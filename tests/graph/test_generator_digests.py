"""Cross-commit pin of the graphs the generators produce.

Goldens and perfbench digests only compare a tree against itself or
use families that never call a generator, so a change that reorders an
``rng`` call or alters a dedupe would silently re-draw every catalog
dataset. These SHA-256 digests of the ``(src, dst)`` bytes were recorded
before the generators went sort-based (the heavy-skew Chung-Lu case and
the two service-mix scenarios before the weighted draws left
``Generator.choice``); any optimisation of
:mod:`repro.graph.generators` must keep them byte for byte.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graph.datasets import load_dataset
from repro.graph.generators import (
    chung_lu_bipartite,
    community_bipartite,
    configuration_bipartite,
)
from repro.scenarios import build_scenario


def _digest_pairs(pairs) -> str:
    h = hashlib.sha256()
    for src, dst in pairs:
        h.update(np.ascontiguousarray(src, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(dst, dtype=np.int64).tobytes())
    return h.hexdigest()


def _digest_graph(graph) -> str:
    return _digest_pairs(graph.edges_of(rel) for rel in graph.relations)


def _configuration():
    rng = np.random.default_rng(11)
    src_deg = rng.integers(0, 12, size=300)
    dst_deg = np.bincount(
        rng.integers(0, 200, size=int(src_deg.sum())), minlength=200
    )
    return configuration_bipartite(src_deg, dst_deg, seed=12)


CASES = {
    "community": lambda: _digest_pairs(
        [community_bipartite(800, 600, 9000, num_blocks=12, seed=1)]
    ),
    # One redraw round leaves 199 edges short: the within-block pool.
    "community_saturated_within": lambda: _digest_pairs(
        [
            community_bipartite(
                64, 64, 900, num_blocks=4, mixing=0.03, seed=3, max_rounds=1
            )
        ]
    ),
    # Within-block pairs run out: the full-complement pool.
    "community_saturated_full": lambda: _digest_pairs(
        [
            community_bipartite(
                40, 30, 1000, num_blocks=4, mixing=0.5, seed=4, max_rounds=2
            )
        ]
    ),
    "chung_lu": lambda: _digest_pairs(
        [chung_lu_bipartite(700, 500, 8000, seed=2)]
    ),
    # Heavy skew: over a hundred redraw rounds before it converges.
    "chung_lu_heavy_skew": lambda: _digest_pairs(
        [
            chung_lu_bipartite(
                400, 300, 1000, src_exponent=2.0, dst_exponent=2.0, seed=5
            )
        ]
    ),
    "configuration": lambda: _digest_pairs([_configuration()]),
    **{
        f"{name}@{scale:g}": (
            lambda name=name, scale=scale: _digest_graph(
                load_dataset(name, seed=1, scale=scale)
            )
        )
        for name in ("acm", "imdb", "dblp")
        for scale in (0.1, 1.0)
    },
    "scale:base=dblp,factor=3": lambda: _digest_graph(
        build_scenario("scale:base=dblp,factor=3", seed=1)
    ),
    # The generator-backed scenarios of perfbench's service mix.
    **{
        ref: (
            lambda ref=ref: _digest_graph(
                build_scenario(ref, seed=1, scale=0.5)
            )
        )
        for ref in ("community:mixing=0.3", "relations:num_relations=4")
    },
}

EXPECTED = {
    "acm@0.1": "e02fb3d940762bffb38bdf2ce162aa40128fd8148e4d7e8768a8e00b8236a4a7",
    "acm@1": "6ece4c1b3c566ebcd7d92f7fa9cdf72604d8df5ad59da14b8f9ec5b641be654f",
    "chung_lu": "c7ece6761027bb21f78528544cba17117799b6f0634eed2bf1b6ebfd9843b7fd",
    "chung_lu_heavy_skew": "69bfa4f1b061ebb528762d1935814eb07e7339f9c0ce5823f703a69a4628d9fb",
    "community": "e7746317a6e324dd9301fb450552930cca5d2090819f97115ed3064fcbed844d",
    "community:mixing=0.3": "82156790e3336a68bf3839771f730c443e079355c95c6ffa4627b86224984499",
    "community_saturated_full": "126d9a0e3fe7a07cb081d9daecb461fd169460381528f6bb6d916f9c5e5517d7",
    "community_saturated_within": "610f7b1a1493194b59ee653a9e1c85fb431feef4772a2caf3289dc6436533d84",
    "configuration": "e10c530654b0e2428e47f8579340d84eb0695af49bc688f681f8a07c11b8a4d5",
    "dblp@0.1": "8124159630049af4939ef9c9d73e108ecf1b56f232f058250afbaed73ba3b2d0",
    "dblp@1": "262a8bb16900a5efb38cc3b670548993e56e4edbb1b9211c3f2d09d11777040c",
    "imdb@0.1": "84509e79ee41f88e2d5a631b35210c71f417d3cb486fccc95b66c57e8bf0b008",
    "imdb@1": "c46d3e895cdcb787710c3b3a414eabb9fc2f0f09c639b167632c75caa655887d",
    "relations:num_relations=4": "5a8f795f878acb3a31d13a6bdf4b42e8eea429edb9aeee5344c6bbf6f0eb3be8",
    "scale:base=dblp,factor=3": "b953cd5af6576c835fb43f09722373963a17b13ec90d3023df2adcea39c75c7f",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_generated_graph_digest(case):
    assert CASES[case]() == EXPECTED[case]
