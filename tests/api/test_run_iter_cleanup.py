"""Abandonment regression: a dropped ``run_iter`` generator cleans up.

A consumer that walks away mid-stream (a disconnecting service client)
must not leak pending futures, pool worker processes, or
shared-memory segments. The fix propagates the abandonment into
``GridRunner.run_cells`` *synchronously* via an explicit ``close()``,
so pool shutdown happens at abandonment time, not at garbage-collection
time. The shm leak fixture (autouse, imported below) guards segments;
these tests pin threads, processes and exactly-once semantics.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.api import Session

# Autouse: no repro-* segment may survive any test in this module.
from tests.platforms.conftest import no_leaked_segments  # noqa: F401
from tests.chaos.conftest import tiny_spec


def _new_live_threads(before: set) -> list[threading.Thread]:
    return [
        t for t in threading.enumerate() if t not in before and t.is_alive()
    ]


def _wait_for_no_children(timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


class TestSerial:
    def test_abandon_before_first_yield(self):
        before = set(threading.enumerate())
        with Session(tiny_spec(), jobs=1) as session:
            stream = session.run_iter()
            stream.close()  # never consumed at all
            assert _new_live_threads(before) == []

    def test_rerun_after_abandonment_yields_full_grid(self):
        spec = tiny_spec()
        with Session(spec, jobs=1) as session:
            stream = session.run_iter()
            next(stream)
            stream.close()
            # The same session still delivers the whole grid, and the
            # results equal a fresh session's (abandonment cancelled
            # work, it never corrupted it).
            grid = session.run()
        fresh = Session(spec).run()
        assert grid.cells == fresh.cells


class TestProcessBackend:
    def test_close_reaps_worker_processes(self):
        with Session(tiny_spec(), jobs=2) as session:
            stream = session.run_iter()
            next(stream)
            stream.close()
            # shutdown(wait=True) ran inside close(); workers exit
            # promptly (active_children also reaps).
            assert _wait_for_no_children()

    def test_abandonment_then_rerun_is_bit_identical(self):
        spec = tiny_spec()
        with Session(spec, jobs=2) as session:
            stream = session.run_iter()
            next(stream)
            stream.close()
            grid = session.run()
        assert _wait_for_no_children()
        fresh = Session(spec).run()
        assert grid.cells == fresh.cells


class TestComputeCells:
    """The service-facing hook shares run_iter's teardown contract."""

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "process"])
    def test_abandoned_compute_cells_tears_down(self, jobs):
        before = set(threading.enumerate())
        spec = tiny_spec()
        with Session(spec, jobs=jobs) as session:
            cells = list(spec.cells())
            stream = session.compute_cells(cells, spec=spec)
            cell, result = next(stream)
            assert cell in cells and result.ok
            stream.close()
            if jobs == 1:
                assert _new_live_threads(before) == []
            else:
                assert _wait_for_no_children()

    def test_compute_cells_completes_and_memoizes(self):
        spec = tiny_spec()
        with Session(spec, jobs=2) as session:
            cells = list(spec.cells())
            computed = dict(session.compute_cells(cells, spec=spec))
            assert sorted(computed) == sorted(cells)
            # Finalization memoized parent-side: peeks are now warm.
            for cell in cells:
                assert session.peek_cell(cell, spec=spec) == computed[cell]
