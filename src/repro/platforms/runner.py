"""Parallel, failure-isolating executor of grid cells.

The runner owns the per-(seed, scale, configuration) execution state
behind :class:`~repro.api.session.Session`:

- dataset graphs and their shared :class:`DatasetArtifacts` (built once
  per dataset, then read-only but for the lock-guarded frontend pass
  memo),
- platform instances resolved through the registry,
- an in-memory memo of raw simulation reports,
- for ``jobs > 1``, its process-pool *lanes* and the datasets they own.

The session owns everything above it: the persistent store, the grid
order and the fan-out defaults, which it passes explicitly to
:meth:`GridRunner.run_cells`.

``jobs`` alone picks the fan-out: ``jobs == 1`` runs serially
in-process, and each dataset is built by its first cell, so the first
cell does not wait for the other datasets. ``jobs > 1`` is true
multicore, on up to ``jobs`` lanes — single-worker process pools that
each own whole datasets. A dataset's cells all go to one lane, whose
worker builds it at its first cell through the same serial path and
keeps it, with its frontend, GPU-L2 and NA-segment passes, for later
cells and later calls; each cell streams back as it completes. A
dataset's cells never split across workers — a second worker would
repeat its build and the passes its cells share — so a batch runs on
at most as many processes as it has distinct datasets. The
parent never builds a dataset for the pool, nothing is published or
pickled per dataset, and per-cell traffic is the cell key and its
report. Memoization stays in the parent, and so does the session's
store I/O, so the store's bytes are identical to a serial run.

Simulations are deterministic pure functions of the dataset, so
parallel runs are bit-identical to serial ones. Fault plans survive
the process hop: every call re-arms each lane's worker with a fresh
:class:`~repro.faults.FaultPlan` from the caller's ``(rules, seed)``,
and firing is a pure function of ``(seed, rule, site, key, n)`` — a
dataset's cells run in batch order on one worker, so the schedule hits
the same cells it would in-process.

Failure semantics
-----------------

One raising cell never aborts the fan-out. :meth:`GridRunner.run_cell`
applies an optional :class:`~repro.platforms.failures.RetryPolicy`
(transient errors only — injected faults and OS-level I/O errors,
never validation ``ValueError``), and with ``on_error="collect"``
captures the terminal exception as a typed
:class:`~repro.platforms.failures.CellFailure` instead of raising.
:meth:`GridRunner.run_cells` applies the choice to every cell:
``"raise"`` (default) fails fast, ``"collect"`` yields failures as
values next to the surviving reports. A pool worker's death is a cell
failure too: the lane respawns, reruns its unfinished cells one at a
time, and the cell that kills the worker a second time fails alone.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from collections import Counter, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool

from repro.faults import inject
from repro.graph.hetero import HeteroGraph
from repro.platforms.base import DatasetArtifacts, Platform, PlatformContext
from repro.platforms.failures import ArtifactBuildError, CellFailure, RetryPolicy
from repro.platforms.registry import create_platform

__all__ = ["GridRunner", "resolve_jobs"]

GridKey = tuple[str, str, str]

_ON_ERROR = ("raise", "collect")

#: Start method for the process pool. ``fork`` is preferred where
#: available (no re-import, instant workers); ``REPRO_MP_START_METHOD``
#: overrides (e.g. ``spawn`` to exercise the macOS/Windows default).
ENV_MP_START_METHOD = "REPRO_MP_START_METHOD"


def resolve_jobs(jobs: int | str | None) -> int:
    """Parse a job count, accepting ``"auto"`` (= CPU count)."""
    if jobs is None:
        return 1
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            return os.cpu_count() or 1
        jobs = int(jobs)
    return max(1, jobs)


def _mp_context():
    import multiprocessing

    method = os.environ.get(ENV_MP_START_METHOD)
    if not method:
        available = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in available else "spawn"
    return multiprocessing.get_context(method)


# ----------------------------------------------------------------------
# Process-pool lanes
# ----------------------------------------------------------------------
#
# A lane's worker keeps a GridRunner in module state, built by the
# initializer from the platform context and (seed, scale). Every
# run_cells call re-arms the caller's fault schedule in it as picklable
# ``(rules, seed)``: a FaultPlan holds a lock and cannot travel, and
# firing is a pure function of the pair, so a re-armed copy hits the
# same cells. Per-cell traffic is just the cell key and its outcome.

_WORKER_RUNNER: "GridRunner | None" = None


def _worker_init(context, seed, scale):
    global _WORKER_RUNNER
    from repro.faults import disarm

    # Under fork the child inherits the parent's armed plan object;
    # drop it so only the re-armed copy fires.
    disarm()
    _WORKER_RUNNER = GridRunner(context, seed=seed, scale=scale)


def _worker_arm(fault_rules, fault_seed):
    from repro.faults import arm, disarm
    from repro.faults.plan import FaultPlan

    disarm()
    if fault_rules is not None:
        arm(FaultPlan(rules=fault_rules, seed=fault_seed))


def _worker_run_cell(cell, retry, on_error):
    outcome = _WORKER_RUNNER.run_cell(*cell, retry=retry, on_error=on_error)
    # The parent memoizes every report; a worker that lives as long as
    # its runner keeps only its datasets, not a second copy of each.
    _WORKER_RUNNER.results.pop(cell, None)
    return outcome


class _Lane:
    """A single-worker process pool and the datasets its worker owns.

    Tasks run in submission order on the one worker, so an arm task
    submitted before a call's cells takes effect before any of them.
    """

    def __init__(self, initargs: tuple, fault: tuple) -> None:
        self.initargs = initargs
        self.datasets: set[str] = set()
        self.spawn(fault)

    def spawn(self, fault: tuple) -> None:
        """Start a fresh worker (it rebuilds owned datasets on demand)."""
        self.pool = ProcessPoolExecutor(
            max_workers=1,
            mp_context=_mp_context(),
            initializer=_worker_init,
            initargs=self.initargs,
        )
        self.arm(fault)

    def arm(self, fault: tuple) -> None:
        self._submit(_worker_arm, *fault)

    def submit(self, cell: GridKey, retry, on_error: str) -> Future:
        return self._submit(_worker_run_cell, cell, retry, on_error)

    def _submit(self, fn, *args) -> Future:
        # A worker that died between tasks breaks the pool at submit
        # time; report it through the future, like a death mid-task.
        try:
            return self.pool.submit(fn, *args)
        except BrokenProcessPool as exc:
            future: Future = Future()
            future.set_exception(exc)
            return future

    def close(self) -> None:
        self.pool.shutdown(wait=True, cancel_futures=True)


def _close_lanes(lanes: list[_Lane]) -> None:
    """Shut down every lane (runner close, GC or interpreter exit)."""
    for lane in lanes:
        lane.close()
    lanes.clear()


class GridRunner:
    """Executes grid cells through the registry and the report memo.

    Args:
        context: configuration bundle handed to every platform.
        seed: dataset generation seed (also seeds deterministic retry
            jitter).
        scale: dataset scale factor.
    """

    def __init__(
        self,
        context: PlatformContext | None = None,
        *,
        seed: int = 1,
        scale: float = 1.0,
    ) -> None:
        self.context = context or PlatformContext()
        self.seed = seed
        self.scale = scale
        self.results: dict[GridKey, object] = {}
        self._graphs: dict[str, HeteroGraph] = {}
        self._artifacts: dict[str, DatasetArtifacts] = {}
        self._platforms: dict[str, Platform] = {}
        self._lock = threading.Lock()
        # Per-dataset build locks: concurrent callers that need the same
        # (not yet warmed) dataset build it once, not racily twice.
        self._build_locks: dict[str, threading.Lock] = {}
        # Process-pool lanes, kept across run_cells calls with the
        # datasets their workers built. One call at a time uses them
        # (a concurrent call runs on private lanes); _lanes_guard makes
        # claiming, releasing and closing them atomic, and a close()
        # that finds them in use leaves their shutdown to that call.
        # The finalizer shuts them down when the runner dies —
        # including interpreter exit and KeyboardInterrupt
        # (weakref.finalize registers with atexit).
        self._lanes: list[_Lane] = []
        self._lanes_jobs = 0
        self._lanes_guard = threading.Lock()
        self._lanes_busy = False
        self._lanes_closing = False
        self._lanes_finalizer = weakref.finalize(
            self, _close_lanes, self._lanes
        )

    def close(self) -> None:
        """Shut down the process-pool lanes (idempotent).

        Lanes that a ``run_cells`` call (on another thread, or a
        suspended iterator) still uses stay up until that call ends,
        which then shuts them down itself: a pool shut down under a
        waiting call would leave it blocked. The exit-time finalizer
        stays armed, so a runner that fans out again after ``close()``
        starts new lanes and is still leak-safe.
        """
        with self._lanes_guard:
            if self._lanes_busy:
                self._lanes_closing = True
            else:
                _close_lanes(self._lanes)

    # ------------------------------------------------------------------
    # Shared state (graphs, artifacts, platforms)
    # ------------------------------------------------------------------

    def graph(self, dataset: str) -> HeteroGraph:
        """The (cached) generated dataset or scenario graph.

        ``dataset`` is a Table 2 catalog name or a scenario reference
        (``family:key=value,...``); both resolve through
        :func:`repro.scenarios.load_workload` and cache under the name
        as given, so specs (which canonicalize references eagerly)
        share one graph per sweep point.
        """
        if dataset not in self._graphs:
            from repro.scenarios import load_workload

            inject("workload.build", key=dataset)
            self._graphs[dataset] = load_workload(
                dataset, seed=self.seed, scale=self.scale
            )
        return self._graphs[dataset]

    def _build_lock(self, dataset: str) -> threading.Lock:
        with self._lock:
            lock = self._build_locks.get(dataset)
            if lock is None:
                lock = self._build_locks[dataset] = threading.Lock()
            return lock

    def artifacts(self, dataset: str) -> DatasetArtifacts:
        """Warmed per-dataset topology artifacts (cached, built once)."""
        if dataset in self._artifacts:
            return self._artifacts[dataset]
        with self._build_lock(dataset):
            if dataset not in self._artifacts:
                self._artifacts[dataset] = DatasetArtifacts.build(
                    self.graph(dataset)
                )
        return self._artifacts[dataset]

    def platform(self, name: str) -> Platform:
        """The (cached) platform instance for ``name``.

        Double-checked under ``_lock``: the service's dispatcher thread
        and its off-loop peeks resolve platforms concurrently, and two
        unlocked builders would each construct (and one would silently
        discard) an instance.
        """
        if name in self._platforms:
            return self._platforms[name]
        with self._lock:
            if name not in self._platforms:
                self._platforms[name] = create_platform(name, self.context)
            return self._platforms[name]

    def warm_artifacts(
        self,
        datasets: list[str] | tuple[str, ...],
        *,
        jobs: int = 1,
        errors: str = "raise",
    ) -> dict[str, BaseException]:
        """Build the topology artifacts of every named dataset.

        Distinct datasets are independent, so with ``jobs > 1`` they
        warm concurrently on a thread pool (numpy releases the GIL in
        the sort-heavy trace work). No grid path calls it (cells build
        their own dataset); it stays for direct callers and for
        ``perfbench/spans.py``, which patches it by name.

        A failing build always names its dataset: with
        ``errors="raise"`` (default) the first failure — in dataset
        order, not completion order — re-raises wrapped in
        :class:`ArtifactBuildError`; with ``errors="collect"`` every
        failure is returned in a ``{dataset: exception}`` map so the
        caller can degrade per cell instead of aborting the grid.
        """
        if errors not in _ON_ERROR:
            raise ValueError(
                f"errors must be one of {_ON_ERROR}, got {errors!r}"
            )
        needed = [
            dataset
            for dataset in dict.fromkeys(datasets)
            if dataset not in self._artifacts
        ]
        failures: dict[str, BaseException] = {}

        def build(dataset: str) -> None:
            try:
                self.artifacts(dataset)
            except Exception as exc:
                failures[dataset] = exc

        if jobs > 1 and len(needed) > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                list(pool.map(build, needed))
        else:
            for dataset in needed:
                build(dataset)
        if failures and errors == "raise":
            dataset = next(d for d in needed if d in failures)
            raise ArtifactBuildError(dataset, failures[dataset]) from failures[
                dataset
            ]
        return failures

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_cell(
        self,
        platform_name: str,
        model: str,
        dataset: str,
        *,
        retry: RetryPolicy | None = None,
        on_error: str = "raise",
    ):
        """Run (or fetch) one grid cell; memoized.

        Transient failures (see :meth:`RetryPolicy.is_transient`) are
        retried up to ``retry.max_attempts`` with deterministic
        backoff seeded by ``(run seed, cell key, attempt)``. The
        terminal outcome either raises (``on_error="raise"``) or is
        returned as a :class:`CellFailure` (``on_error="collect"``);
        failures are never memoized, so a later call may retry the
        cell fresh.
        """
        if on_error not in _ON_ERROR:
            raise ValueError(
                f"on_error must be one of {_ON_ERROR}, got {on_error!r}"
            )
        key: GridKey = (platform_name, model, dataset)
        with self._lock:
            if key in self.results:
                return self.results[key]
        # Unknown platforms are configuration errors, never CellFailures.
        platform = self.platform(platform_name)
        started = time.perf_counter()
        attempt = 0
        while True:
            attempt += 1
            try:
                artifacts = self.artifacts(dataset)
                inject("platform.simulate", key=key)
                report = platform.simulate(model, artifacts)
                break
            except Exception as exc:
                if retry is not None and retry.should_retry(exc, attempt):
                    delay = retry.delay_s(
                        attempt, seed=self.seed, token="|".join(key)
                    )
                    if delay > 0:
                        time.sleep(delay)
                    continue
                if on_error == "collect":
                    return CellFailure.from_exception(
                        key,
                        exc,
                        attempts=attempt,
                        elapsed_s=time.perf_counter() - started,
                    )
                if dataset not in self._artifacts:
                    # Only the build fails before the artifacts exist:
                    # name the dataset, as warm_artifacts does.
                    raise ArtifactBuildError(dataset, exc) from exc
                raise
        with self._lock:
            return self.results.setdefault(key, report)

    def run_cells(
        self,
        cells: list[GridKey],
        *,
        jobs: int = 1,
        retry: RetryPolicy | None = None,
        on_error: str = "raise",
    ):
        """Yield ``(cell, outcome)`` for every cell, in completion order.

        The one fan-out primitive behind ``Session.compute_cells``:
        serial (``jobs <= 1``) and process-pool execution share its
        contract — every cell yields exactly once with a report or
        (``on_error="collect"``) a :class:`CellFailure`; reports are
        memoized in the parent process either way, so memo contents
        (and the session's store bytes) are identical to a serial run.

        Serially, each dataset is built by its first cell. With
        ``jobs > 1`` the cells run on up to ``jobs`` single-worker
        lanes: each dataset of the batch goes whole to the lane that
        owns it from an earlier call, else to the first idle lane (a
        new one while fewer than ``jobs`` run), in batch order. The
        lane's worker builds the dataset at its first cell, exactly as
        a serial run does, and every cell streams back as it
        completes; the parent builds nothing. A batch of fewer
        datasets than ``jobs`` starts only one lane per dataset. Lanes
        keep their datasets until :meth:`close` (deferred to the end
        of a call still using them), a call with another ``jobs``, or
        an abandoned or failed call.

        A worker that dies (``BrokenProcessPool``) is respawned and the
        lane's unfinished cells rerun one at a time; a cell that kills
        the worker again is the culprit, and becomes a failure with
        ``attempts=2`` (collect) or re-raises (raise).

        Abandoning the iterator early cancels cells not yet started,
        waits only for the ones in flight and shuts the lanes down.
        """
        if on_error not in _ON_ERROR:
            raise ValueError(
                f"on_error must be one of {_ON_ERROR}, got {on_error!r}"
            )
        if jobs <= 1:
            for cell in cells:
                yield cell, self.run_cell(*cell, retry=retry, on_error=on_error)
            return

        with self._lanes_guard:
            shared = not self._lanes_busy
            self._lanes_busy = True
        lanes = self._lanes if shared else []
        finished = False
        try:
            if shared and jobs != self._lanes_jobs:
                _close_lanes(lanes)
                self._lanes_jobs = jobs
            yield from self._run_on_lanes(lanes, cells, jobs, retry, on_error)
            finished = True
        finally:
            if not shared:
                _close_lanes(lanes)
            else:
                with self._lanes_guard:
                    if not finished or self._lanes_closing:
                        _close_lanes(lanes)
                    self._lanes_busy = self._lanes_closing = False

    def _run_on_lanes(self, lanes, cells, jobs, retry, on_error):
        from repro.faults import active_plan

        plan = active_plan()
        fault = (plan.rules, plan.seed) if plan is not None else (None, 0)
        initargs = (self.context, self.seed, self.scale)
        order = {cell: index for index, cell in enumerate(cells)}
        by_dataset: dict[str, list[GridKey]] = {}
        for cell in cells:
            by_dataset.setdefault(cell[2], []).append(cell)
        pending: dict[Future, tuple[GridKey, _Lane]] = {}
        busy: Counter[_Lane] = Counter()  # cells in flight per lane
        # Lanes whose worker died this call, with their unfinished
        # cells: those rerun one at a time on the respawned worker.
        backlog: dict[_Lane, deque[GridKey]] = {}
        unplaced: list[str] = []

        def submit(lane: _Lane, cell: GridKey) -> None:
            pending[lane.submit(cell, retry, on_error)] = (cell, lane)
            busy[lane] += 1

        def place() -> None:
            """Hand waiting datasets to idle lanes, starting new ones
            while fewer than ``jobs`` run."""
            while unplaced:
                idle = [
                    lane
                    for lane in lanes
                    if lane not in backlog and not busy[lane]
                ]
                if idle:
                    lane = idle[0]
                elif len(lanes) < jobs:
                    lane = _Lane(initargs, fault)
                    lanes.append(lane)
                else:
                    return
                dataset = unplaced.pop(0)
                lane.datasets.add(dataset)
                for cell in by_dataset[dataset]:
                    submit(lane, cell)

        for lane in lanes:
            lane.arm(fault)
        for dataset, dataset_cells in by_dataset.items():
            owner = next(
                (lane for lane in lanes if dataset in lane.datasets), None
            )
            if owner is None:
                unplaced.append(dataset)
                continue
            for cell in dataset_cells:
                submit(owner, cell)
        place()
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                if future not in pending:
                    continue  # requeued when its lane's worker died
                cell, lane = pending.pop(future)
                busy[lane] -= 1
                outcome = None
                try:
                    outcome = future.result()
                except BrokenProcessPool as exc:
                    if lane in backlog:
                        # It ran alone on a respawned worker and killed
                        # it again: this cell is the culprit.
                        if on_error == "raise":
                            raise
                        outcome = CellFailure.from_exception(
                            cell, exc, attempts=2
                        )
                    else:
                        lost = [cell] + [
                            pending.pop(f)[0]
                            for f, (_, owner) in list(pending.items())
                            if owner is lane
                        ]
                        busy[lane] = 0
                        backlog[lane] = deque(sorted(lost, key=order.get))
                    lane.close()
                    lane.spawn(fault)
                if lane in backlog and not busy[lane]:
                    if backlog[lane]:
                        submit(lane, backlog[lane].popleft())
                    else:
                        del backlog[lane]
                place()
                if outcome is None:
                    continue
                if not isinstance(outcome, CellFailure):
                    # Memoization happens here, in the parent — exactly
                    # where the serial path does it — so the memo
                    # cannot depend on the worker count.
                    with self._lock:
                        outcome = self.results.setdefault(cell, outcome)
                yield cell, outcome
