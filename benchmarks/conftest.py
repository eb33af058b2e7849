"""Shared state for the benchmark suite.

The full-scale evaluation grid is expensive, so one session-scoped
:class:`~repro.api.Session` over the paper's default
:class:`~repro.api.ExperimentSpec` is shared by every benchmark that
needs it. Knobs (environment variables):

- ``REPRO_BENCH_SCALE`` (default 1.0) trades fidelity for speed.
- ``REPRO_BENCH_JOBS`` (default 1) fans the grid out over the parallel
  runner; results are bit-identical to serial runs.
- ``REPRO_BENCH_STORE`` (unset by default) points the session at a
  persistent artifact store directory, making repeated benchmark
  sessions warm-cache. Leave unset to measure true simulation cost.
"""

from __future__ import annotations

import os

import pytest

from repro.api import ExperimentSpec, Session
from repro.platforms import ArtifactStore

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
BENCH_STORE = os.environ.get("REPRO_BENCH_STORE")


@pytest.fixture(scope="session")
def spec() -> ExperimentSpec:
    return ExperimentSpec(scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def session(spec):
    store = ArtifactStore(BENCH_STORE) if BENCH_STORE else None
    with Session(spec, store=store, jobs=BENCH_JOBS) as shared:
        yield shared


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
