"""Chaos contract under the process pool (``jobs > 1``).

Fault firing is a pure function of ``(plan seed, rule, site, key)``
and each cell runs exactly once, so an armed plan must fail *the same
cells* whether the grid runs serially or on forked workers re-arming
the plan from its picklable ``(rules, seed)`` —
and surviving cells must stay bit-identical to a fault-free run.
"""

from __future__ import annotations

import pytest

from repro.api import CellResult, Session
from repro.faults import FaultPlan, FaultRule
from repro.platforms.failures import CellFailure, RetryPolicy

from tests.chaos.conftest import CHAOS_SEED, tiny_spec

#: Fixed representative schedules (hypothesis sweeps live in
#: test_grid_chaos.py; forking a pool per example is too slow here).
PLANS = {
    "half-simulate": [FaultRule("platform.simulate", rate=0.5)],
    "all-simulate": [FaultRule("platform.simulate", rate=1.0)],
    "thrash-build": [FaultRule("workload.build", match="thrash")],
    "mixed": [
        FaultRule("platform.simulate", rate=0.3),
        FaultRule("workload.build", rate=0.3, match="uniform"),
    ],
}


def run_grid(rules, *, jobs: int, retry=None):
    plan = FaultPlan(rules, seed=CHAOS_SEED)
    with plan:
        return Session(tiny_spec(), jobs=jobs).run(
            on_error="collect", retry=retry
        )


@pytest.mark.parametrize("name", sorted(PLANS))
def test_process_fault_schedule_matches_serial(name, baseline_cells):
    rules = PLANS[name]
    serial = run_grid(rules, jobs=1)
    processed = run_grid(rules, jobs=4)
    assert [c.key for c in processed.cells] == [
        c.key for c in serial.cells
    ]
    for ours, theirs in zip(processed.cells, serial.cells):
        assert ours.status == theirs.status, ours.key
        if ours.ok:
            # Survivors are bit-identical to the fault-free baseline.
            assert ours == baseline_cells[ours.key]
            assert ours == theirs
        else:
            assert isinstance(ours.failure, CellFailure)
            assert ours.failure.key == ours.key
            assert "InjectedFault" in ours.failure.error_type or (
                ours.failure.error_type == theirs.failure.error_type
            )


def test_process_run_iter_exactly_once_under_faults(baseline_cells):
    spec = tiny_spec()
    plan = FaultPlan(
        [FaultRule("platform.simulate", rate=0.5)], seed=CHAOS_SEED
    )
    with plan:
        seen = list(
            Session(spec, jobs=4).run_iter(
                on_error="collect"
            )
        )
    assert sorted(c.key for c in seen) == sorted(spec.cells())
    assert len({c.key for c in seen}) == len(seen)
    for cell in seen:
        assert isinstance(cell, CellResult)
        if cell.ok:
            assert cell == baseline_cells[cell.key]


def test_process_failures_not_cached(baseline_cells):
    with FaultPlan(
        [FaultRule("platform.simulate", rate=1.0)], seed=CHAOS_SEED
    ):
        broken = Session(tiny_spec(), jobs=2).run(on_error="collect")
    assert not broken.ok
    healed = Session(tiny_spec(), jobs=2).run()
    assert healed.ok
    assert {c.key: c for c in healed.cells} == baseline_cells


def test_process_retry_cures_budgeted_faults(baseline_cells):
    spec = tiny_spec()
    plan = FaultPlan(
        [
            FaultRule("platform.simulate", times=1, match=str(key))
            for key in spec.cells()
        ],
        seed=CHAOS_SEED,
    )
    with plan:
        grid = Session(spec, jobs=4).run(
            on_error="collect", retry=RetryPolicy(max_attempts=2)
        )
    assert grid.ok
    assert {c.key: c for c in grid.cells} == baseline_cells
