"""Parallel, failure-isolating executor of grid cells.

The runner owns the per-(seed, scale, configuration) execution state
behind :class:`~repro.api.session.Session`:

- dataset graphs and their shared :class:`DatasetArtifacts` (built once
  per dataset, then read-only but for the lock-guarded frontend pass
  memo — the precondition for fanning cells out across workers),
- platform instances resolved through the registry,
- an in-memory memo of raw simulation reports,
- a ``concurrent.futures`` process pool for ``jobs > 1``.

The session owns everything above it: the persistent store, the grid
order and the fan-out defaults, which it passes explicitly to
:meth:`GridRunner.run_cells`.

``jobs`` alone picks the fan-out: ``jobs == 1`` (or a single cell)
runs serially in-process, and each dataset is built by its first cell,
so the first cell does not wait for the other datasets. ``jobs > 1`` is
true multicore. The parent warms every dataset of the batch first
(:meth:`GridRunner.warm_artifacts`), publishes its topology arrays
into shared memory (:mod:`repro.platforms.shm`), and workers attach
them as zero-copy read-only views — no artifact is ever rebuilt or
pickled per cell. Memoization stays in the parent, and so does the
session's store I/O, so the store's bytes are identical to a serial
run.

Simulations are deterministic pure functions of the warmed artifacts,
so parallel runs are bit-identical to serial ones. Fault plans survive
the process hop: workers re-arm a fresh :class:`~repro.faults.FaultPlan`
from the parent's ``(rules, seed)``, and firing is a pure function of
``(seed, rule, site, key, n)`` — the schedule hits the same cells it
would in-process.

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
values next to the surviving reports.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)

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
# Process-pool worker protocol
# ----------------------------------------------------------------------
#
# The initializer receives everything a worker needs exactly once per
# worker: the platform context, (seed, scale), the shared-memory
# handles of every published dataset, and the parent's fault schedule
# as picklable ``(rules, seed)`` (a FaultPlan holds a lock and cannot
# travel; firing is a pure function of the pair, so a re-armed copy
# hits the same cells). Workers keep a GridRunner in module state;
# per-cell traffic is just the (tiny) cell key and its report.

_WORKER_RUNNER: "GridRunner | None" = None


def _worker_init(context, seed, scale, handles, fault_rules, fault_seed):
    global _WORKER_RUNNER
    from repro.faults import arm, disarm
    from repro.faults.plan import FaultPlan
    from repro.platforms.shm import attach_artifacts

    # Under fork the child inherits the parent's armed plan object;
    # disarm it first so the re-armed copy owns all counters.
    disarm()
    if fault_rules is not None:
        arm(FaultPlan(rules=fault_rules, seed=fault_seed))
    runner = GridRunner(context, seed=seed, scale=scale)
    for dataset, handle in handles.items():
        runner._artifacts[dataset] = attach_artifacts(handle)
    _WORKER_RUNNER = runner


def _worker_run_cell(cell, retry, on_error):
    return cell, _WORKER_RUNNER.run_cell(*cell, retry=retry, on_error=on_error)


def _close_segments(segments: dict) -> None:
    """Unlink every published segment (runner GC / interpreter exit)."""
    for segment in segments.values():
        segment.close()
    segments.clear()


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
        # Published shared-memory segments (process pool), one per
        # dataset, reused across run_cells calls. The finalizer unlinks
        # them when the runner dies — including interpreter exit and
        # KeyboardInterrupt (weakref.finalize registers with atexit).
        self._segments: dict[str, object] = {}
        self._handles: dict[str, object] = {}
        self._segments_finalizer = weakref.finalize(
            self, _close_segments, self._segments
        )

    def close(self) -> None:
        """Release published shared-memory segments (idempotent).

        The exit-time finalizer stays armed, so a runner that publishes
        again after ``close()`` is still leak-safe.
        """
        self._handles.clear()
        _close_segments(self._segments)

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
        warm concurrently on a pool (numpy releases the GIL in the
        sort-heavy trace work). Warming before a grid fan-out is what
        keeps parallel runs bit-identical to serial ones: once built,
        artifacts are read-only shared state.

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

    def publish_dataset(self, dataset: str):
        """Shared-memory handle of one warmed dataset (published once).

        The segment is owned by this runner and reused across fan-outs;
        :meth:`close` (or runner GC / interpreter exit) unlinks it.
        """
        handle = self._handles.get(dataset)
        if handle is not None:
            return handle
        from repro.platforms.shm import publish_artifacts
        from repro.scenarios import workload_digest

        artifacts = self.artifacts(dataset)
        with self._build_lock(dataset):
            if dataset not in self._handles:
                segment, handle = publish_artifacts(
                    artifacts,
                    digest=workload_digest(dataset, self.seed, self.scale),
                )
                self._segments[dataset] = segment
                self._handles[dataset] = handle
        return self._handles[dataset]

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
        serial (``jobs <= 1`` or a single cell) and process-pool
        execution share its contract — every cell yields exactly once
        with a report or (``on_error="collect"``) a
        :class:`CellFailure`; reports are memoized in the parent
        process either way, so memo contents (and the session's store
        bytes) are identical to a serial run.

        Serially, each dataset is built by its first cell. The process
        branch warms every dataset of the batch first
        (:meth:`warm_artifacts`) and its workers attach them from
        shared memory; in collect mode, cells whose dataset failed to
        warm cannot be published and run in the parent, where
        :meth:`run_cell` turns the build error into a typed failure.
        In raise mode a failing build raises
        :class:`ArtifactBuildError` either way.

        Abandoning the iterator early cancels cells not yet started
        and waits only for the ones in flight.
        """
        if on_error not in _ON_ERROR:
            raise ValueError(
                f"on_error must be one of {_ON_ERROR}, got {on_error!r}"
            )
        if jobs <= 1 or len(cells) <= 1:
            for cell in cells:
                yield cell, self.run_cell(*cell, retry=retry, on_error=on_error)
            return

        from repro.faults import active_plan

        datasets = list(dict.fromkeys(dataset for _, _, dataset in cells))
        failed = self.warm_artifacts(datasets, jobs=jobs, errors=on_error)
        handles = {
            d: self.publish_dataset(d) for d in datasets if d not in failed
        }
        local = [c for c in cells if c[2] not in handles]
        remote = [c for c in cells if c[2] in handles]
        for cell in local:
            yield cell, self.run_cell(*cell, retry=retry, on_error=on_error)
        if not remote:
            return

        plan = active_plan()
        fault_rules = plan.rules if plan is not None else None
        fault_seed = plan.seed if plan is not None else 0
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(remote)),
            mp_context=_mp_context(),
            initializer=_worker_init,
            initargs=(
                self.context,
                self.seed,
                self.scale,
                handles,
                fault_rules,
                fault_seed,
            ),
        )
        try:
            futures = {
                pool.submit(_worker_run_cell, cell, retry, on_error): cell
                for cell in remote
            }
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    cell, outcome = future.result()
                    if not isinstance(outcome, CellFailure):
                        # Memoization happens here, in the parent —
                        # exactly where the serial path does it — so
                        # the memo cannot depend on the worker count.
                        with self._lock:
                            outcome = self.results.setdefault(cell, outcome)
                    yield cell, outcome
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
