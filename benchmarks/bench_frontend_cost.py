"""Experiment A3 -- Frontend cost: pipeline hiding and the vectorized engines.

Two questions, one file:

1. Does restructuring hide in the pipeline? GDR-HGNN's value depends on
   restructuring graph ``k+1`` while the accelerator runs graph ``k``;
   the pytest benchmark measures the frontend's busy cycles against the
   accelerator's execution cycles and the exposed latency.
2. How much faster are the vectorized frontend engines? The standalone
   entry point times the restructuring hot path -- FIFO matching,
   hash-conflict replay and backbone selection -- under the
   ``naive=True`` reference loops and the vectorized default, verifies
   the reports are bit-identical, and writes ``BENCH_frontend.json``
   (same shape as ``BENCH_replay.json``) so the repository tracks the
   frontend's perf trajectory. The community walk has one
   implementation, so recoupling is timed once and reported as
   ``shared``; both totals include it.

Standalone: ``python benchmarks/bench_frontend_cost.py [--dataset dblp]
[--scale 1.0] [--repeats 3] [--output BENCH_frontend.json]``.
Also runs under pytest as a smoke test (vectorized must beat naive).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import time
from pathlib import Path

from repro.accelerator.hihgnn import HiHGNNSimulator
from repro.analysis.report import ascii_table
from repro.frontend.config import GDRConfig
from repro.frontend.gdr import GDRHGNNSystem
from repro.frontend.hashtable import HashTable, count_fifo_conflicts
from repro.graph.datasets import load_dataset
from repro.graph.semantic import build_semantic_graphs
from repro.restructure.backbone import select_backbone
from repro.restructure.matching import maximum_matching_fifo
from repro.restructure.matching_vec import maximum_matching_vec
from repro.restructure.recouple import recouple


def _best_of(repeats, func):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def _frontend_share(graphs, *, naive: bool, repeats: int) -> dict:
    """Time the engines with a ``naive=True`` reference over all graphs."""
    cfg = GDRConfig()

    def matching_pass():
        matcher = maximum_matching_fifo if naive else maximum_matching_vec
        return [matcher(sg) for sg in graphs]

    def hash_pass():
        out = []
        for sg in graphs:
            if naive:
                table = HashTable(cfg.hash_sets, cfg.hash_ways)
                for k in sg.dst.tolist():
                    if table.lookup(k) is None:
                        table.insert(k)
                out.append(table.stats.conflicts)
            else:
                out.append(
                    count_fifo_conflicts(sg.dst, cfg.hash_sets, cfg.hash_ways)
                )
        return out

    t_match, matchings = _best_of(repeats, matching_pass)
    t_hash, conflicts = _best_of(repeats, hash_pass)
    t_backbone, partitions = _best_of(
        repeats,
        lambda: [
            select_backbone(sg, m, "konig", naive=naive)
            for sg, m in zip(graphs, matchings)
        ],
    )
    return {
        "matching_s": t_match,
        "hash_replay_s": t_hash,
        "backbone_s": t_backbone,
        "_matchings": matchings,
        "_conflicts": conflicts,
        "_partitions": partitions,
    }


def run_benchmark(dataset: str, scale: float, repeats: int) -> dict:
    graph = load_dataset(dataset, scale=scale)
    graphs = build_semantic_graphs(graph)

    naive = _frontend_share(graphs, naive=True, repeats=repeats)
    fast = _frontend_share(graphs, naive=False, repeats=repeats)

    # The engines are bit-identical, not just statistically close.
    matchings = fast.pop("_matchings")
    counters_identical = all(
        dataclasses.asdict(a.counters) == dataclasses.asdict(b.counters)
        and (a.match_src == b.match_src).all()
        for a, b in zip(naive.pop("_matchings"), matchings)
    )
    conflicts_identical = naive.pop("_conflicts") == fast.pop("_conflicts")
    naive.pop("_partitions")
    partitions = fast.pop("_partitions")
    # One community walk serves both paths: time it once.
    t_recouple, _ = _best_of(
        repeats,
        lambda: [
            recouple(sg, m, p)
            for sg, m, p in zip(graphs, matchings, partitions)
        ],
    )
    for share in (naive, fast):
        share["total_s"] = (
            share["matching_s"] + share["hash_replay_s"]
            + share["backbone_s"] + t_recouple
        )

    t_cell_naive, report_naive = _best_of(
        repeats, lambda: GDRHGNNSystem(naive=True).run(graph, "rgcn")
    )
    t_cell_fast, report_fast = _best_of(
        repeats, lambda: GDRHGNNSystem().run(graph, "rgcn")
    )
    reports_identical = dataclasses.asdict(report_naive) == dataclasses.asdict(
        report_fast
    )

    return {
        "benchmark": "frontend_restructure",
        "dataset": dataset,
        "scale": scale,
        "repeats": repeats,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "frontend_share": {
            "relations": len(graphs),
            "naive": naive,
            "vectorized": fast,
            "shared": {"recouple_s": t_recouple},
            "speedup": naive["total_s"] / fast["total_s"],
            "component_speedups": {
                "matching": naive["matching_s"] / fast["matching_s"],
                "hash_replay": naive["hash_replay_s"] / fast["hash_replay_s"],
                "backbone": naive["backbone_s"] / fast["backbone_s"],
            },
        },
        "end_to_end": {
            "pass": "GDRHGNNSystem.run, rgcn (hihgnn+gdr cold cell)",
            "naive_s": t_cell_naive,
            "vectorized_s": t_cell_fast,
            "speedup": t_cell_naive / t_cell_fast,
        },
        "bit_identical": {
            "matching_counters": counters_identical,
            "hash_conflicts": conflicts_identical,
            "simulation_reports": reports_identical,
        },
    }


def test_frontend_hides_in_pipeline(benchmark, spec, session):
    from benchmarks.conftest import run_once

    def run_all():
        out = {}
        for dataset in spec.datasets:
            graph = session.graph(dataset)
            base = HiHGNNSimulator(
                spec.accelerator, spec.model_config
            ).run(graph, "rgcn")
            gdr = GDRHGNNSystem(
                spec.accelerator, spec.frontend, spec.model_config
            ).run(graph, "rgcn")
            out[dataset] = (base, gdr)
        return out

    results = run_once(benchmark, run_all)
    rows = []
    for dataset, (base, gdr) in results.items():
        exposed = max(0, gdr.total_cycles - base.total_cycles)
        rows.append([
            dataset, base.total_cycles, gdr.total_cycles,
            gdr.frontend_cycles, exposed,
            f"{gdr.frontend_cycles / base.total_cycles:.1%}",
        ])
    print()
    print(ascii_table(
        ["dataset", "hihgnn cycles", "system cycles", "frontend busy",
         "exposed", "frontend/accel"],
        rows, title="A3: frontend cost and pipeline hiding (RGCN)",
    ))

    for dataset, (base, gdr) in results.items():
        # The system is never slower than bare HiHGNN...
        assert gdr.total_cycles <= base.total_cycles * 1.02
        # ...and whatever is exposed is far less than the frontend's
        # total busy time (i.e. the pipeline does hide it).
        exposed = max(0, gdr.total_cycles - base.total_cycles)
        assert exposed < gdr.frontend_cycles


def test_vectorized_frontend_beats_naive(benchmark):
    """Perf smoke: the vectorized cell beats naive=True end-to-end."""
    import scipy.sparse.csgraph  # noqa: F401  (exclude import from timing)

    from benchmarks.conftest import run_once

    def measure():
        return run_benchmark("dblp", scale=1.0, repeats=2)

    results = run_once(benchmark, measure)
    bits = results["bit_identical"]
    assert bits["matching_counters"]
    assert bits["hash_conflicts"]
    assert bits["simulation_reports"]
    assert results["end_to_end"]["speedup"] > 1.0, results["end_to_end"]
    assert results["frontend_share"]["speedup"] > 1.0, (
        results["frontend_share"]
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="dblp")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--output", default="BENCH_frontend.json")
    args = parser.parse_args()

    import scipy.sparse.csgraph  # noqa: F401  (process warm-up, not timed)

    results = run_benchmark(args.dataset, args.scale, args.repeats)
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n")

    share = results["frontend_share"]
    print(f"frontend share: naive {share['naive']['total_s']:.3f}s -> "
          f"vectorized {share['vectorized']['total_s']:.3f}s "
          f"({share['speedup']:.2f}x)")
    for component, speedup in share["component_speedups"].items():
        print(f"  {component:12s} {speedup:5.2f}x")
    print(f"  {'recouple':12s} {share['shared']['recouple_s']:.3f}s (shared)")
    e2e = results["end_to_end"]
    print(f"cold cell: naive {e2e['naive_s']:.3f}s -> "
          f"vectorized {e2e['vectorized_s']:.3f}s ({e2e['speedup']:.2f}x)")
    print(f"bit identical: {results['bit_identical']}")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
