"""Experiment S3-L2 -- §3's motivation measurement.

"The L2 cache hit ratio in the processing of IMDB and DBLP is lower,
reaching 30.1% and 17.5%" (T4, RGCN, NA stage). The GPU model replays
the real NA access trace through the T4's L2 geometry; the measured hit
ratios must land in the same low regime with the same ordering
(ACM > IMDB > DBLP).
"""

from benchmarks.conftest import run_once
from repro.analysis.report import ascii_table

PAPER = {"imdb": 0.301, "dblp": 0.175}


def test_sec3_l2_hit_ratio(benchmark, spec, session):
    def measure():
        return {
            dataset: session.cell("t4", "rgcn", dataset).na_l2_hit_ratio
            for dataset in spec.datasets
        }

    ratios = run_once(benchmark, measure)
    rows = [
        [name, f"{PAPER.get(name, float('nan')):.1%}" if name in PAPER else "-",
         f"{ratio:.1%}"]
        for name, ratio in ratios.items()
    ]
    print()
    print(ascii_table(
        ["dataset", "paper", "measured"], rows,
        title="S3: T4 L2 hit ratio during RGCN neighbor aggregation",
    ))
    # Shape: thrashing regime (well below a healthy 90%+), DBLP worst.
    assert ratios["dblp"] < ratios["imdb"] < ratios["acm"]
    assert ratios["dblp"] < 0.55
    assert ratios["imdb"] < 0.60
