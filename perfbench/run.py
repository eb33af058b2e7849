"""The simulator's benchmark: one command, four workloads (three gated).

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke          # every workload once, tiny inputs

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric instead (rounds alternate
traced and untraced, so the same run also yields the tracing
overhead). Every run checks the program's outputs; the last stdout
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. The exit code is 0 only when the outputs are correct.

The benchmark builds nothing: it imports the package from ``src/`` of
the checkout it lives in, and writes only under ``.perfbench_work/``
there (work files are removed at exit; payload digests persist so later
runs of the same source tree are checked against earlier ones).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    MIN_LATENCY_SAMPLES,
    SETUP_REPEATS,
    WORKLOADS,
    Context,
    source_digest,
    stop_helpers,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Hard cap on one run's round loop, so a run ends well within 180 s.
LOOP_BUDGET_S = 100.0
#: Share of rounds dropped at each end before averaging (trimmed_mean).
TRIM = 0.1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    # BENCHMARK.json gates every workload but grid_warm (README.md says
    # why); --smoke runs them all.
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on tiny inputs")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required (or pass --smoke)")
    return args


def provenance(seed: int, code: str) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_digest": code,
        "seed": seed,
    }


def measure(workload, seconds: float, trace: bool, smoke: bool) -> list:
    """Repeat rounds until enough timed work and samples accumulated."""
    workload.setup()
    rounds = []
    min_rounds = max(workload.min_rounds, 4 if trace else 1)
    started = time.perf_counter()

    def enough() -> bool:
        if len(rounds) < min_rounds:
            return False
        if smoke:
            return True
        samples = sum(len(r.latency_s) for r in rounds)
        return sum(r.wall_s for r in rounds) >= seconds and (
            trace or samples >= MIN_LATENCY_SAMPLES
        )

    while not enough() and time.perf_counter() - started < LOOP_BUDGET_S:
        rounds.append(workload.round(traced=trace and len(rounds) % 2 == 0))
        if len(rounds) < SETUP_REPEATS:
            # Spread the set-up samples over the run, so that their
            # median does not rest on one few-second state of the host.
            workload.setup()
    return rounds


def trimmed_mean(values, cut: float = TRIM) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` share.

    The host switches between a fast and a slow state every few
    seconds. A median over a handful of rounds jumps between the two
    when their shares are close; a trimmed mean moves smoothly with the
    shares and still drops the odd outlier round.
    """
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k:len(values) - k])


def end_to_end(workload, rounds, fidelity: dict) -> dict:
    import numpy as np

    setup = workload.setup_samples or [r.setup_s for r in rounds]
    latency = [x for r in rounds for x in r.latency_s]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": trimmed_mean(r.wall_s for r in rounds),
        "ttfc_ms": trimmed_mean(statistics.median(r.ttfc_s) for r in rounds) * 1e3,
        "latency_p50_ms": float(np.percentile(latency, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(latency, 90)) * 1e3,
        "peak_rss_mb": statistics.median(
            r.peak_rss_mb for r in rounds if r.peak_rss_mb is not None
        ),
        **fidelity,
    }


def per_layer(rounds) -> dict:
    import spans

    traced = [r for r in rounds if r.traced and r.trace is not None]
    plain = [r for r in rounds if not r.traced]
    m = spans.layer_metrics([r.trace for r in traced], [r.window for r in traced])
    m["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - (
        statistics.median(r.wall_s for r in plain)
    )
    service = [r.service for r in rounds if r.service is not None]
    total = {k: sum(s[k] for s in service) for k in service[0]} if service else {}
    runs = max(1, len(service))
    m["service.submitted"] = total.get("submitted", 0) / runs
    m["service.executed"] = total.get("executed", 0) / runs
    m["service.dedupe_share"] = (
        total["deduped"] / total["submitted"] if total.get("submitted") else 0.0
    )
    m["service.warm_share"] = total["warm"] / total["cells"] if total else 0.0
    return m


def run_workload(name: str, args, ctx) -> dict:
    workload = WORKLOADS[name](ctx)
    rounds = measure(workload, args.seconds, bool(args.trace), args.smoke)
    fidelity = workload.finish(rounds, bool(args.trace))
    metrics = per_layer(rounds) if args.trace else end_to_end(
        workload, rounds, fidelity
    )
    samples = sum(len(r.latency_s) for r in rounds if not r.traced)
    print(f"{name}: {len(rounds)} rounds, {samples} latency samples, "
          f"{len(workload.setup_samples) or len(rounds)} set-ups")
    return {
        "correct": not ctx.errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run this from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    # Temporary files and default stores of the program land in the
    # work directory, never outside the checkout.
    os.environ["TMPDIR"] = str(work)
    os.environ["REPRO_ARTIFACT_DIR"] = str(work / "default-store")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))

    code = source_digest(ROOT)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    try:
        for name in names:
            ctx = Context(root=ROOT, work=work, env=dict(os.environ),
                          seed=args.seed, smoke=args.smoke, code=code)
            result = run_workload(name, args, ctx)
            for error in ctx.errors:
                print(f"{name}: INCORRECT: {error}", file=sys.stderr)
            results.append(result)
    finally:
        stop_helpers()
        shutil.rmtree(work, ignore_errors=True)

    print("provenance: " + json.dumps(provenance(args.seed, code), sort_keys=True))
    for workload, result in zip(names, results):
        if set(result["metrics"]) != set(units):
            raise RuntimeError(
                "metrics do not match BENCHMARK.json: "
                f"{sorted(set(result['metrics']) ^ set(units))}"
            )
        for name, unit in units.items():
            print(f"  {workload} {name} = {result['metrics'][name]:.6g} {unit}")
    # One workload per run is the benchmark's use; with --smoke the
    # summary carries the last workload's metrics.
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": results[-1]["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
