"""Grid scaling: the parallel runner's wall-clock across worker counts.

``jobs`` alone picks the fan-out: ``jobs=1`` runs serially in-process,
``jobs>1`` on the process pool over shared-memory artifacts. The pool
claims two things: it returns *bit-identical* results to a serial run,
and it scales when cores are available. This benchmark measures both
over the full catalog grid (every default platform x model x dataset
cell, published scale):

1. A serial pass (``jobs=1``) establishes the wall-clock baseline and
   the true per-cell latency distribution (in a serial run the gap
   between consecutive results *is* the cell's cold wall time).
2. Each ``jobs`` value reruns the same grid from a fresh session and
   records wall-clock, speedup over serial, and parallel efficiency
   ``speedup / jobs`` (the ``jobs=1`` row is the serial pass itself).
3. Every row's grid is compared byte-for-byte (canonical JSON)
   against the serial baseline -- a scaling number from a run that
   computed different results would be meaningless.

The host's CPU count is recorded alongside the numbers: on a single
core the process pool *cannot* beat serial (there is nothing to
run in parallel on, and fork + shared-memory attach add overhead), so
efficiencies below one on a ``"cpus": 1`` record are the honest
expected outcome, not a regression. The JSON exists so the trajectory
is tracked wherever the suite runs.

Standalone: ``python benchmarks/bench_grid_scaling.py [--scale 1.0]
[--jobs 1,2,4,8] [--repeats 2] [--output BENCH_grid.json]``.
Also runs under pytest as a smoke test (``jobs`` 1 and 4 bit-identical
on a small grid).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.api import ExperimentSpec, Session


def _canonical_json(grid) -> str:
    return json.dumps(grid.to_dict(), sort_keys=True)


def _timed_run(spec: ExperimentSpec, *, jobs: int):
    """One cold grid run; returns (wall_s, per_result_gaps, canonical_json)."""
    with Session(spec, jobs=jobs) as session:
        gaps = []
        last = start = time.perf_counter()
        for _ in session.run_iter():
            now = time.perf_counter()
            gaps.append(now - last)
            last = now
        wall = time.perf_counter() - start
        # The grid is memoized by now; this re-assembles, not re-runs.
        payload = _canonical_json(session.run())
    return wall, gaps, payload


def _best_run(spec, *, jobs, repeats):
    best = (float("inf"), None, None)
    for _ in range(repeats):
        result = _timed_run(spec, jobs=jobs)
        if result[0] < best[0]:
            best = result
    return best


def run_benchmark(scale: float, jobs_list: list[int], repeats: int) -> dict:
    spec = ExperimentSpec(scale=scale)
    num_cells = len(spec.platforms) * len(spec.models) * len(spec.datasets)

    best = {
        jobs: _best_run(spec, jobs=jobs, repeats=repeats)
        for jobs in dict.fromkeys([1, *jobs_list])
    }
    serial_wall, serial_gaps, serial_payload = best[1]

    runs = []
    for jobs in jobs_list:
        wall, _, payload = best[jobs]
        speedup = serial_wall / wall
        runs.append({
            "jobs": jobs,
            "wall_s": wall,
            "speedup_vs_serial": speedup,
            "parallel_efficiency": speedup / jobs,
            "identical_to_serial": payload == serial_payload,
        })

    return {
        "benchmark": "grid_scaling",
        "scale": scale,
        "seed": spec.seed,
        "repeats": repeats,
        "grid": {
            "platforms": list(spec.platforms),
            "models": list(spec.models),
            "datasets": list(spec.datasets),
            "cells": num_cells,
        },
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "serial": {
            "wall_s": serial_wall,
            "cell_p50_s": float(np.percentile(serial_gaps, 50)),
            "cell_p95_s": float(np.percentile(serial_gaps, 95)),
        },
        "all_identical": all(r["identical_to_serial"] for r in runs),
    } | {"runs": runs}


def test_grid_scaling_identical(benchmark):
    """Perf smoke: the process pool reproduces the serial grid exactly."""
    from benchmarks.conftest import run_once

    spec = ExperimentSpec(
        platforms=("t4", "hihgnn"), models=("rgcn",), scale=0.25
    )

    def measure():
        out = {}
        for jobs in (1, 4):
            _, gaps, payload = _timed_run(spec, jobs=jobs)
            out[jobs] = (len(gaps), payload)
        return out

    results = run_once(benchmark, measure)
    assert results[1][0] == results[4][0] == 6
    assert results[4][1] == results[1][1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--jobs", default="1,2,4,8")
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--output", default="BENCH_grid.json")
    args = parser.parse_args()
    jobs_list = [int(j) for j in args.jobs.split(",")]

    results = run_benchmark(args.scale, jobs_list, args.repeats)
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n")

    serial = results["serial"]
    print(
        f"grid: {results['grid']['cells']} cells at scale "
        f"{results['scale']} on {results['cpus']} cpu(s)"
    )
    print(
        f"serial: {serial['wall_s']:.2f}s wall, cell p50 "
        f"{serial['cell_p50_s'] * 1e3:.0f}ms p95 "
        f"{serial['cell_p95_s'] * 1e3:.0f}ms"
    )
    for run in results["runs"]:
        print(
            f"  jobs={run['jobs']}: "
            f"{run['wall_s']:6.2f}s  {run['speedup_vs_serial']:4.2f}x  "
            f"eff {run['parallel_efficiency']:4.2f}  "
            f"identical={run['identical_to_serial']}"
        )
    print(f"all identical: {results['all_identical']}")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
