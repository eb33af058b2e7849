"""Experiment F7 -- Fig. 7: speedup over T4.

Runs the full platform x model x dataset grid and prints speedups
normalized to the T4 baseline, plus the GEOMEAN bars. Paper values:
HiHGNN+GDR-HGNN achieves 68.8x over T4, 14.6x over A100 and 1.78x over
HiHGNN on average. The required *shape*: the platform ordering
T4 < A100 < HiHGNN < HiHGNN+GDR everywhere, with GDR's edge largest on
DBLP (the thrashing-heaviest dataset).
"""

from benchmarks.conftest import BENCH_JOBS, run_once
from repro.analysis.report import ascii_table

PAPER_GEOMEAN = {"a100": 4.7, "hihgnn": 38.7, "hihgnn+gdr": 68.8}


def test_fig7_speedup(benchmark, spec, session):
    def compute():
        return session.run(jobs=BENCH_JOBS).speedup()

    table = run_once(benchmark, compute)
    rows = []
    for model in spec.models:
        for dataset in spec.datasets:
            cell = table[model][dataset]
            rows.append([model, dataset] +
                        [f"{cell[p]:.2f}" for p in spec.platforms])
    geo = table["GEOMEAN"]["all"]
    rows.append(["GEOMEAN", "all"] + [f"{geo[p]:.2f}" for p in spec.platforms])
    rows.append(["paper", "geomean", "1.00",
                 str(PAPER_GEOMEAN["a100"]), str(PAPER_GEOMEAN["hihgnn"]),
                 str(PAPER_GEOMEAN["hihgnn+gdr"])])
    print()
    print(ascii_table(["model", "dataset"] + list(spec.platforms), rows,
                      title="Fig. 7: speedup over T4"))

    # Shape: strict platform ordering on the geomean.
    assert 1.0 < geo["a100"] < geo["hihgnn"] <= geo["hihgnn+gdr"]
    # GDR helps every single configuration.
    for model in spec.models:
        for dataset in spec.datasets:
            cell = table[model][dataset]
            assert cell["hihgnn+gdr"] >= cell["hihgnn"] * 0.999
    # GDR's edge over HiHGNN is largest on DBLP.
    gdr_gain = {
        dataset: table["rgcn"][dataset]["hihgnn+gdr"]
        / table["rgcn"][dataset]["hihgnn"]
        for dataset in spec.datasets
    }
    assert gdr_gain["dblp"] == max(gdr_gain.values())
