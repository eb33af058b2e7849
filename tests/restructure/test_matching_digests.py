"""Cross-commit pin of the Decoupler's FIFO matching.

The matching and its hardware-event counters drive every Decoupler
report, and goldens see them only through aggregate cycle counts. These
SHA-256 digests of ``maximum_matching_vec``'s ``match_src``,
``match_dst`` and every :class:`MatchingCounters` field were recorded
before the search phase moved onto plain lists; any change to
:mod:`repro.restructure.matching_vec` must keep them byte for byte.
Each case covers a set of semantic graphs at both ``greedy_init``
values. The last two cases take the no-search exits (every root matched
greedily, or no edge at all), which only the ``bitmap_reads`` tail
accounting sees.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.graph.datasets import load_dataset
from repro.graph.hetero import Relation
from repro.graph.semantic import SemanticGraph, build_semantic_graphs
from repro.restructure.matching_vec import maximum_matching_vec
from tests.restructure.test_matching_vec import STRESS_REFS, _scenario_graphs


def _graph(num_src, num_dst, edges) -> SemanticGraph:
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return SemanticGraph(
        Relation("a", "r", "b"), num_src, num_dst, pairs[:, 0], pairs[:, 1]
    )


def _edge_case_graphs(name):
    if name == "all-greedy-star":
        # One hub source over 40 leaves (both orientations): the greedy
        # pass matches the only root. Then three sources sharing one
        # destination: the greedy match already reaches the search
        # limit, so the two unmatched roots are never searched.
        return [
            _graph(1, 40, [(0, v) for v in range(40)]),
            _graph(40, 1, [(u, 0) for u in range(40)]),
            _graph(3, 4, [(0, 0), (1, 0), (2, 0)]),
        ]
    return [_graph(5, 7, []), _graph(7, 5, [])]


def _digest_matchings(graphs, greedy_init: bool) -> str:
    h = hashlib.sha256()
    for sg in graphs:
        result = maximum_matching_vec(sg, greedy_init=greedy_init)
        for side in (result.match_src, result.match_dst):
            side = np.ascontiguousarray(side, dtype=np.int64)
            h.update(np.int64(side.size).tobytes())
            h.update(side.tobytes())
        for name, value in dataclasses.asdict(result.counters).items():
            h.update(f"{name}={value};".encode())
    return h.hexdigest()


GRAPHS = {
    **{
        f"{name}@{scale:g}": (
            lambda name=name, scale=scale: build_semantic_graphs(
                load_dataset(name, seed=1, scale=scale)
            )
        )
        for name in ("acm", "imdb", "dblp")
        for scale in (0.1, 1.0)
    },
    **{ref: (lambda ref=ref: _scenario_graphs(ref)) for ref in STRESS_REFS},
    **{
        name: (lambda name=name: _edge_case_graphs(name))
        for name in ("all-greedy-star", "empty")
    },
}

EXPECTED = {
    "acm@0.1|greedy=False": "6c5ba7d49cb881f2890429593973fb19c3fc4ae22355e51c2d3820c8ad09b82e",
    "acm@0.1|greedy=True": "6e3f3aefc9fd1d79ece66ca7aa33468c465b95bab45a236f796a6b4cc9b79aa8",
    "acm@1|greedy=False": "f9817f7b1840d8e82a7ad09b8d58e4824b2a6709864c1b453df493649adb834c",
    "acm@1|greedy=True": "969542de390c6c0bdf9f542db1d3ca6cb226c9c44cd4583ae36fc52070e39dba",
    "all-greedy-star|greedy=False": "3c435d29ddedf4bd156fd06480f70b7f3efc848b34d00684fccdc488b9eb2789",
    "all-greedy-star|greedy=True": "154e86329d999ae647daac8e7001eeffd7e9bf8fc2baf747fde16186029fa43f",
    "community:num_src=192,num_dst=192,num_edges=1500,mixing=0.35|greedy=False": "d465d1415c92bfa12c17d69e51fcb499ec0f25c89be37201260d6fd8d5959903",
    "community:num_src=192,num_dst=192,num_edges=1500,mixing=0.35|greedy=True": "6ea1e7755420215617feea4809c8db28448b0ddb4b113ead7d29005ab990f51f",
    "dblp@0.1|greedy=False": "805d3174dd17756b06b786641d135dd2e8f87c274ee1efb490e1a304afe34ea2",
    "dblp@0.1|greedy=True": "9d91b1a1a254168319e73aa1e02515ff4338c681d8dac1bb557b9a298853e530",
    "dblp@1|greedy=False": "42fbdf2cdb0abbfd406d928a90c40bf9238e0fef69a77b750e62cab7eb7a69d1",
    "dblp@1|greedy=True": "20309a8ad4e4d67e64ef14b8e64872c0f0f41d28a2fad50284caca6cd91c591b",
    "empty|greedy=False": "770a16dd621890ff04c60155274aa87d1e3cdb0db328ab97f65db07f76bcca53",
    "empty|greedy=True": "770a16dd621890ff04c60155274aa87d1e3cdb0db328ab97f65db07f76bcca53",
    "imdb@0.1|greedy=False": "45f71907ee7be635a031fb0a6eabf52c35d4488a18ee6151360748bd0d32b50c",
    "imdb@0.1|greedy=True": "bf9adaebac22ab50c0297ff8f7a2a56ada8006ae5b1a0a157af9cd076ab992c7",
    "imdb@1|greedy=False": "65341cc0a039c0428e5b30287430620854b16be8f2d46f8dd67ce3faf642281a",
    "imdb@1|greedy=True": "86a5695dce0b28b07e590a515df2a8529dd5804bcbfb67f5346dcd22b2516178",
    "skew:num_src=256,num_dst=128,num_edges=2048,exponent=1.6|greedy=False": "7714bef3908bc8d0ba99be059a66e53af3158240298a45a9f2727ea73e76a349",
    "skew:num_src=256,num_dst=128,num_edges=2048,exponent=1.6|greedy=True": "9eabf5a86c369ffdd52c60cbdad23de48645db8f843afd9e5473751fc54c488e",
    "star:num_leaves=300,num_hubs=7|greedy=False": "8b271f1d63882a497645a2391997cb4229954f4079818da2d3c5ef41574815b4",
    "star:num_leaves=300,num_hubs=7|greedy=True": "2f6726238e21c95954471f8eb30c14e721e77fbcb962ce4370964ec12f0aa5bf",
    "star:num_leaves=512|greedy=False": "42d5fc28983f6d767a1a4ce9ff702a7b5c69d0e8e9f5dc3230eee9f0b8e302e9",
    "star:num_leaves=512|greedy=True": "29616e5c228158ced57d156a5bee909705534b1e93d1512be7988068f3347673",
    "thrash:working_set=96,num_dst=24|greedy=False": "fe18b9d9dc84425277614132c0d4b82ccc34a5738853fa5289190f1d99b14ebc",
    "thrash:working_set=96,num_dst=24|greedy=True": "6e19ca94dd70dd9d29524eb319b889e14b21b3183c2401db2a53c8642cf689a9",
    "uniform:num_dst=128,degree=3|greedy=False": "701e24c48e1793e9ef00634e7daa52612b385d37e10834183a3f1b0990c88248",
    "uniform:num_dst=128,degree=3|greedy=True": "5aafc4b78bf09d42100cb0e51071744df03f707907ceb08226bb2e490657937d",
}


@pytest.mark.parametrize("greedy_init", [True, False])
@pytest.mark.parametrize("case", sorted(GRAPHS))
def test_matching_digest(case, greedy_init):
    key = f"{case}|greedy={greedy_init}"
    assert _digest_matchings(GRAPHS[case](), greedy_init) == EXPECTED[key]
