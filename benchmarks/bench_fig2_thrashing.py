"""Experiment F2 -- Fig. 2: replacement times of vertex features.

Runs RGCN on HiHGNN for the three datasets and prints the two series of
Fig. 2 -- the ratio of vertices at each replacement count and the ratio
of DRAM accesses they generate. Shape requirements: a substantial share
of vertices is replaced repeatedly, replaced vertices dominate DRAM
accesses, and DBLP (most vertices) thrashes hardest.
"""

from benchmarks.conftest import run_once
from repro.analysis.report import ascii_table, render_histogram
from repro.analysis.thrashing import thrashing_analysis


def test_fig2_replacement_histograms(benchmark, spec, session):
    def profile_all():
        return {
            dataset: thrashing_analysis(
                session.graph(dataset),
                "rgcn",
                config=spec.accelerator,
                model_config=spec.model_config,
                semantic_graphs=session.semantic_graphs(dataset),
            )
            for dataset in spec.datasets
        }

    profiles = run_once(benchmark, profile_all)
    print()
    for name, profile in profiles.items():
        rows = [
            [times,
             f"{profile.histogram[times]['vertex_ratio']:.1f}%",
             f"{profile.histogram[times]['access_ratio']:.1f}%"]
            for times in sorted(profile.histogram)
        ]
        print(ascii_table(
            ["replacements", "ratio of #vertex", "ratio of #access"], rows,
            title=f"Fig. 2 ({name.upper()}): NA-buffer replacement times",
        ))
        print(render_histogram(profile.histogram, series="access_ratio"))
        print(f"  redundant DRAM fetches: {profile.redundant_accesses} "
              f"({profile.redundancy_fraction:.1%} of NA misses)\n")

    # Shape assertions.
    redundancy = {n: p.redundancy_fraction for n, p in profiles.items()}
    assert redundancy["dblp"] == max(redundancy.values())
    assert profiles["dblp"].thrashing_access_ratio() > 30.0
    for profile in profiles.values():
        assert profile.thrashing_vertex_ratio() > 0.0
