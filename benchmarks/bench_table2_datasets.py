"""Experiment T2 -- Table 2: dataset statistics.

Regenerates the three synthetic datasets at published scale and prints
their vertex counts, feature dimensions and relation counts next to the
paper's Table 2 values (vertex counts and dims must match exactly; edge
counts follow the HGB releases).
"""

from benchmarks.conftest import run_once
from repro.analysis.report import ascii_table
from repro.graph.datasets import DATASET_SPECS


def test_table2(benchmark, spec, session):
    def build():
        return {name: session.graph(name) for name in spec.datasets}

    graphs = run_once(benchmark, build)
    rows = []
    for name, graph in graphs.items():
        paper = DATASET_SPECS[name]
        for vtype in graph.vertex_types:
            rows.append([
                name, vtype,
                paper.num_vertices[vtype], graph.num_vertices(vtype),
                graph.feature_dim(vtype) or "-",
            ])
        rows.append([
            name, "(edges, all relations)",
            paper.total_edges, graph.num_edges(), "-",
        ])
    print()
    print(ascii_table(
        ["dataset", "vertex type", "paper", "generated", "feat dim"],
        rows, title="Table 2: dataset statistics (paper vs generated)",
    ))
    for name, graph in graphs.items():
        paper = DATASET_SPECS[name]
        if spec.scale == 1.0:
            for vtype, count in paper.num_vertices.items():
                assert graph.num_vertices(vtype) == count


def test_table2_relations_listed(session):
    """Every Table 2 relation (both directions) exists in the graphs."""
    graph = session.graph("imdb")
    names = {r.name for r in graph.relations}
    assert {"performs", "rev_performs", "describes", "rev_describes",
            "directs", "rev_directs"} == names
