"""Cross-commit pin of the Recoupler's community schedules.

The schedule is the paper's source of NA-buffer locality (one backbone
community at a time), and goldens see it only through aggregate cycle
counts. These SHA-256 digests of the ``_community_schedule(sub, budget)``
output were recorded before the scheduler was reduced to one walk; any
change to :mod:`repro.restructure.recouple` must keep them byte for
byte. Each case covers a set of semantic graphs and each graph's three
König subgraphs, at every budget listed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.graph.datasets import load_dataset
from repro.graph.semantic import build_semantic_graphs
from repro.restructure.backbone import select_backbone
from repro.restructure.matching_vec import maximum_matching_vec
from repro.restructure.recouple import _community_schedule
from tests.restructure.test_matching_vec import STRESS_REFS, _scenario_graphs

BUDGETS = (1, 7, 116, 256)


def _with_konig_subgraphs(graphs):
    for sg in graphs:
        yield sg
        partition = select_backbone(sg, maximum_matching_vec(sg), "konig")
        labels = partition.classify_edges(sg)
        for idx in range(3):
            yield sg.edge_subgraph(labels == idx)


def _digest_schedules(graphs, budgets) -> str:
    h = hashlib.sha256()
    for sub in _with_konig_subgraphs(graphs):
        for budget in budgets:
            schedule = np.ascontiguousarray(
                _community_schedule(sub, budget), dtype=np.int64
            )
            h.update(np.int64(schedule.size).tobytes())
            h.update(schedule.tobytes())
    return h.hexdigest()


CASES = {
    **{
        f"{name}@{scale:g}": (
            lambda name=name, scale=scale: _digest_schedules(
                build_semantic_graphs(load_dataset(name, seed=1, scale=scale)),
                BUDGETS,
            )
        )
        for name in ("acm", "imdb", "dblp")
        for scale in (0.1, 1.0)
    },
    **{
        ref: (lambda ref=ref: _digest_schedules(_scenario_graphs(ref), BUDGETS))
        for ref in STRESS_REFS
    },
}

EXPECTED = {
    "acm@0.1": "b109a7d7d2f11a9eafd6dab87c42372e166e386d7cc0740e7a679582187cffdf",
    "acm@1": "be20f1a5e0d719af9a7fda5ffd141536c350762dc3bb5faec14d0b0e796f736c",
    "community:num_src=192,num_dst=192,num_edges=1500,mixing=0.35": "bb13dbe1992c90ac1a403fc656c84c0a74c2a3d3bc1b367440efb40cf1dec68d",
    "dblp@0.1": "7f882c448c2e6fe46294dae4441452f4062d5eefb6c47c56907f1b61c91c5dd0",
    "dblp@1": "479427578b08b02e976276830161c86be106ee706ed466c4792d0d2ddc3805d1",
    "imdb@0.1": "a2332476801eee0998ab4d8cc37d037e87ce040154aaa26d75456b1e1c7db92b",
    "imdb@1": "0f429698137118358e1c13412664b04863a706b76a2afcb826d280651705ada9",
    "skew:num_src=256,num_dst=128,num_edges=2048,exponent=1.6": "30685f057a42566cad0988a0b40be1c8d696a06b1d6b7550c85b0ee4a14fad9b",
    "star:num_leaves=300,num_hubs=7": "6f54168a9a098a1a359d2974f4b5e4d35942afc697f555807951596e70c1973c",
    "star:num_leaves=512": "45e1a3cdae2056bdaeb25d41fd9a12ca815fd5e222e849134552e1dafed314cc",
    "thrash:working_set=96,num_dst=24": "c486b6c675e34074ecb7d722e45ab292b679530b9edcac2bee2a986181122af9",
    "uniform:num_dst=128,degree=3": "347e38452b891c72f4dcd96da126ad8d9f53c4cacecfd91ae73c08ec84867d7c",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_community_schedule_digest(case):
    assert CASES[case]() == EXPECTED[case]
