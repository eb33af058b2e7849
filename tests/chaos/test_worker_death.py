"""Real worker death under the process pool (``jobs > 1``).

An ``"exit"`` fault ends the pool worker that simulates one cell with
``os._exit`` — no exception, no cleanup, the pool breaks. The lane
respawns its worker and reruns the unfinished cells one at a time, so
the second death names the culprit: that one cell fails (as a typed
failure in collect mode), every other cell equals a fault-free run.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import ExperimentSpec, Session
from repro.faults import FaultPlan, FaultRule
from repro.platforms.failures import ArtifactBuildError

from tests.chaos.conftest import CHAOS_SEED

SPEC = ExperimentSpec(
    platforms=("t4", "hihgnn"),
    models=("rgcn",),
    datasets=("acm", "imdb"),
    seed=7,
    scale=0.1,
)
#: imdb's first and last cell on its lane: the first dies with the
#: other still queued behind it, the last after the other delivered.
CULPRITS = [("t4", "rgcn", "imdb"), ("hihgnn", "rgcn", "imdb")]


@pytest.fixture(scope="module")
def fault_free():
    return {cell.key: cell for cell in Session(SPEC).run().cells}


def dying(key) -> FaultPlan:
    rule = FaultRule("platform.simulate", action="exit", match=str(key))
    return FaultPlan([rule], seed=CHAOS_SEED)


@pytest.mark.parametrize("culprit", CULPRITS, ids=["first", "last"])
def test_dying_cell_is_one_typed_failure(fault_free, culprit):
    before = set(multiprocessing.active_children())
    with dying(culprit), Session(SPEC, jobs=2) as session:
        grid = session.run(on_error="collect")
    assert set(multiprocessing.active_children()) <= before
    failed = [cell for cell in grid.cells if not cell.ok]
    assert [cell.key for cell in failed] == [culprit]
    failure = failed[0].failure
    assert failure.error_type.endswith("BrokenProcessPool")
    assert failure.attempts == 2
    for cell in grid.cells:
        if cell.ok:
            assert cell == fault_free[cell.key]


def test_dying_cell_reraises_in_raise_mode():
    with dying(CULPRITS[0]), Session(SPEC, jobs=2) as session:
        with pytest.raises(BrokenProcessPool):
            session.run(on_error="raise")


def test_session_heals_after_a_death(fault_free):
    with Session(SPEC, jobs=2) as session:
        with dying(CULPRITS[1]):
            broken = session.run(on_error="collect")
        assert not broken.ok
        healed = session.run()
    assert {cell.key: cell for cell in healed.cells} == fault_free


def test_build_failure_raises_typed_across_the_pool():
    plan = FaultPlan([FaultRule("workload.build", match="imdb")])
    with plan, Session(SPEC, jobs=2) as session:
        with pytest.raises(ArtifactBuildError, match="'imdb'") as excinfo:
            session.run(on_error="raise")
    assert excinfo.value.dataset == "imdb"
    assert type(excinfo.value.cause).__name__ == "InjectedFault"


def test_worker_killed_between_calls_is_replaced(fault_free):
    """A lane whose worker died while idle respawns on its next call."""
    with Session(SPEC, jobs=2) as session:
        session.run()
        for child in multiprocessing.active_children():
            child.kill()
            child.join()
        cells = list(SPEC.cells())
        again = dict(session.compute_cells(cells, on_error="collect"))
    assert {key: cell for key, cell in again.items()} == fault_free
