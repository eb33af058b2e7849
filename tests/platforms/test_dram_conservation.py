"""Conservation: no platform reads less from DRAM than NA must fetch.

The NA stage aggregates source features at global feature ids. Each
distinct id the NA traces touch has to come from DRAM at least once,
so its *compulsory* bytes are the number of distinct NA source features
times the feature-vector size. A cell whose DRAM reads fall below that
models a cache that serves data nobody fetched: a modelling bug, not a
tolerance to widen. The property is checked on the cell's total DRAM
reads and, tighter, on its NA source-feature fetches alone (GPU L2
misses, HiHGNN NA buffer misses).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import sorted_unique
from repro.gpu.gpumodel import GPUReport
from repro.platforms.base import DatasetArtifacts
from repro.platforms.registry import create_platform
from repro.scenarios.workloads import load_workload
from tests.strategies import scenario_refs

PLATFORMS = ("t4", "a100", "hihgnn", "hihgnn+gdr")
MODELS = ("rgcn", "rgat", "simple_hgn")

#: Catalog datasets and the ``scale`` family, as ``(reference, scale)``;
#: the other families come from :func:`scenario_refs` at scale 1.0.
CATALOG = (
    ("acm", 0.1),
    ("imdb", 0.1),
    ("dblp", 0.05),
    ("scale:base=imdb,factor=0.05", 1.0),
)

workloads = st.one_of(
    st.sampled_from(CATALOG),
    st.tuples(scenario_refs(), st.just(1.0)),
)


def _distinct_na_sources(artifacts: DatasetArtifacts) -> int:
    return len(
        sorted_unique(
            np.concatenate(
                [sg.active_src() + sg.src_global_base for sg in artifacts.semantic_graphs]
            )
        )
    )


def _na_source_bytes(report, feature_vector_bytes: int) -> int:
    if isinstance(report, GPUReport):
        return report.l2.misses * feature_vector_bytes
    return report.stage_totals["na"].buffer_misses * feature_vector_bytes


@settings(max_examples=25, deadline=None)
@given(workload=workloads, seed=st.integers(0, 50), model=st.sampled_from(MODELS))
def test_dram_reads_cover_compulsory_source_features(workload, seed, model):
    ref, scale = workload
    artifacts = DatasetArtifacts.build(load_workload(ref, seed=seed, scale=scale))
    distinct = _distinct_na_sources(artifacts)
    for name in PLATFORMS:
        platform = create_platform(name)
        fvb = platform.context.model_config.feature_vector_bytes
        compulsory = distinct * fvb
        report = platform.simulate(model, artifacts)
        assert report.dram.bytes_read >= compulsory, (ref, name, model)
        assert _na_source_bytes(report, fvb) >= compulsory, (ref, name, model)
