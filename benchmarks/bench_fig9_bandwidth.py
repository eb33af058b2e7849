"""Experiment F9 -- Fig. 9: DRAM bandwidth utilization.

Paper: HiHGNN+GDR-HGNN improves utilization 2.58x over T4 and 6.35x
over A100, while sitting slightly below bare HiHGNN ("a marginal
trade-off... primarily due to increased strain on compute resources").
Required shape: accelerators utilize bandwidth far better than the
GPUs; A100 is the least-utilized (its bandwidth is enormous relative to
these small graphs); GDR's utilization is in the same band as HiHGNN's.
"""

from benchmarks.conftest import BENCH_JOBS, run_once
from repro.analysis.report import ascii_table


def test_fig9_bandwidth_utilization(benchmark, spec, session):
    def compute():
        return session.run(jobs=BENCH_JOBS).bandwidth()

    table = run_once(benchmark, compute)
    rows = []
    for model in spec.models:
        for dataset in spec.datasets:
            cell = table[model][dataset]
            rows.append([model, dataset] +
                        [f"{cell[p]:.1%}" for p in spec.platforms])
    geo = table["GEOMEAN"]["all"]
    rows.append(["GEOMEAN", "all"] + [f"{geo[p]:.1%}" for p in spec.platforms])
    print()
    print(ascii_table(["model", "dataset"] + list(spec.platforms), rows,
                      title="Fig. 9: DRAM bandwidth utilization"))
    gdr_vs_t4 = geo["hihgnn+gdr"] / geo["t4"]
    gdr_vs_a100 = geo["hihgnn+gdr"] / geo["a100"]
    print(f"\nGDR+HiHGNN utilization vs T4: {gdr_vs_t4:.2f}x "
          f"(paper 2.58x), vs A100: {gdr_vs_a100:.2f}x (paper 6.35x)")

    # Shape assertions.
    assert geo["hihgnn+gdr"] > geo["t4"]
    assert geo["hihgnn+gdr"] > geo["a100"]
    assert geo["a100"] <= geo["t4"]  # A100's huge bandwidth sits idle
    # GDR within a modest band of HiHGNN (the paper's "marginal trade-off")
    assert 0.5 <= geo["hihgnn+gdr"] / geo["hihgnn"] <= 2.0
