"""The execution facade: specs in, typed results out.

A :class:`Session` owns everything that makes repeated experiments
cheap — the parallel :class:`~repro.platforms.runner.GridRunner` with
its per-dataset topology caches, and an optional persistent
:class:`~repro.platforms.store.ArtifactStore` of schema-versioned
:class:`~repro.api.results.CellResult` payloads — and exposes two ways
to execute an :class:`~repro.api.spec.ExperimentSpec`:

- :meth:`Session.run` blocks and returns a complete
  :class:`~repro.api.results.GridResult` in the spec's canonical cell
  order (deterministic regardless of worker count).
- :meth:`Session.run_iter` is a generator yielding each
  :class:`~repro.api.results.CellResult` *as it completes* on the
  worker pool, so dashboards and long sweeps consume results
  incrementally instead of waiting for the slowest cell.

One session serves many specs: per-(seed, scale, configuration)
workspaces keep dataset graphs, semantic-graph artifacts and result
memos isolated, while specs differing only in grid axes share them.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.api.results import RESULT_SCHEMA_VERSION, CellResult, GridResult
from repro.api.spec import ExperimentSpec, GridKey
from repro.graph.hetero import HeteroGraph
from repro.graph.semantic import SemanticGraph
from repro.platforms.failures import CellFailure, RetryPolicy
from repro.platforms.runner import GridRunner
from repro.platforms.store import ArtifactStore, config_digest
from repro.scenarios import workload_digest

__all__ = ["Session", "ProgressCallback"]

#: ``progress(done, total, result)`` — invoked after every completed
#: cell (store hits included), with ``done`` counting from 1.
ProgressCallback = Callable[[int, int, CellResult], None]

#: Store schema tag of persisted cell results. The tag participates in
#: both the content address and the store envelope, so bumping
#: RESULT_SCHEMA_VERSION makes every stale entry an automatic miss.
_CELL_SCHEMA = ("cell-result", RESULT_SCHEMA_VERSION)


@dataclass
class _Workspace:
    """Caches of one (seed, scale, platform-configuration) universe."""

    runner: GridRunner
    cells: dict[GridKey, CellResult] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)


class Session:
    """Runs experiment specs and caches their typed results.

    Args:
        spec: default spec for calls that omit one.
        store: optional persistent artifact store; when given, results
            survive the process and later sessions (or concurrent CLI
            invocations) are warm.
        jobs: default worker count for grid fan-out: 1 runs serially
            in-process, more runs a process pool over shared-memory
            artifacts. Results are bit-identical either way.
        executor: accepts only ``"process"`` (anything else raises
            ``ValueError``) and changes nothing. It is kept because
            the frozen ``perfbench`` suite still passes it; drop it
            with the next benchmark change.
    """

    def __init__(
        self,
        spec: ExperimentSpec | None = None,
        *,
        store: ArtifactStore | None = None,
        jobs: int = 1,
        executor: str = "process",
    ) -> None:
        if executor != "process":
            raise ValueError(
                "executor must be 'process' (jobs picks serial or "
                f"process fan-out), got {executor!r}"
            )
        self.spec = spec if spec is not None else ExperimentSpec()
        self.store = store
        self.jobs = max(1, int(jobs))
        self._workspaces: dict[object, _Workspace] = {}
        self._workspaces_lock = threading.Lock()

    def close(self) -> None:
        """Release per-workspace resources (shared-memory segments).

        Safe to skip: every runner also unlinks its segments when
        garbage collected and at interpreter exit.
        """
        with self._workspaces_lock:
            workspaces = list(self._workspaces.values())
        for workspace in workspaces:
            workspace.runner.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Workspaces and shared artifacts
    # ------------------------------------------------------------------

    def _workspace(self, spec: ExperimentSpec) -> _Workspace:
        key = (spec.seed, spec.scale, spec.context())
        with self._workspaces_lock:
            workspace = self._workspaces.get(key)
            if workspace is None:
                workspace = _Workspace(
                    runner=GridRunner(
                        spec.context(), seed=spec.seed, scale=spec.scale
                    )
                )
                self._workspaces[key] = workspace
        return workspace

    @property
    def runner(self) -> GridRunner:
        """The default spec's grid runner (shared topology caches)."""
        return self._workspace(self.spec).runner

    def graph(self, dataset: str, *, spec: ExperimentSpec | None = None) -> HeteroGraph:
        """The (cached) generated dataset graph."""
        return self._workspace(spec or self.spec).runner.graph(dataset)

    def semantic_graphs(
        self, dataset: str, *, spec: ExperimentSpec | None = None
    ) -> list[SemanticGraph]:
        """The (cached) warmed SGB output of one dataset."""
        workspace = self._workspace(spec or self.spec)
        return workspace.runner.artifacts(dataset).semantic_graphs

    # ------------------------------------------------------------------
    # Store plumbing (typed, schema-versioned payloads)
    # ------------------------------------------------------------------

    def _cell_digest(
        self, workspace: _Workspace, spec: ExperimentSpec, key: GridKey
    ) -> str:
        """Digest of everything one cell's result depends on.

        Shared by the store address and the service's content key, so
        the two can never drift apart.
        """
        platform_name, _, dataset = key
        platform = workspace.runner.platform(platform_name)
        # workload_digest covers the resolved generation recipe, so a
        # changed scenario parameter (or catalog recipe edit) is a
        # store miss even when the dataset name text is unchanged.
        return config_digest(
            spec.seed,
            spec.scale,
            workload_digest(dataset, spec.seed, spec.scale),
            *platform.digest_sources(),
            _CELL_SCHEMA,
        )

    def _cell_store_key(
        self, workspace: _Workspace, spec: ExperimentSpec, key: GridKey
    ) -> str:
        digest = self._cell_digest(workspace, spec, key)
        return self.store.key_for(*key, digest)

    def _peek(
        self, workspace: _Workspace, spec: ExperimentSpec, key: GridKey
    ) -> CellResult | None:
        """Memo or store lookup; never simulates."""
        with workspace.lock:
            cached = workspace.cells.get(key)
        if cached is not None:
            return cached
        if self.store is None:
            return None
        payload = self.store.load(
            self._cell_store_key(workspace, spec, key), schema=_CELL_SCHEMA
        )
        if payload is None:
            return None
        result = CellResult.from_dict(payload)
        with workspace.lock:
            return workspace.cells.setdefault(key, result)

    def _compute(
        self,
        workspace: _Workspace,
        spec: ExperimentSpec,
        key: GridKey,
        *,
        retry: RetryPolicy | None = None,
        on_error: str = "raise",
    ) -> CellResult:
        """Simulate one cell, persist and memoize its typed result.

        With ``on_error="collect"`` a terminally failing cell comes
        back as ``CellResult(status="failed")`` carrying the typed
        :class:`CellFailure`; failures are neither memoized nor
        persisted, so a later run retries the cell fresh.
        """
        outcome = workspace.runner.run_cell(
            *key, retry=retry, on_error=on_error
        )
        return self._finalize(workspace, spec, key, outcome)

    def _finalize(
        self,
        workspace: _Workspace,
        spec: ExperimentSpec,
        key: GridKey,
        outcome: object,
    ) -> CellResult:
        """Turn a runner outcome into a typed, persisted CellResult.

        Always runs in the parent process — also for cells simulated on
        the process pool — so the store's bytes are identical no
        matter how many workers produced the report.
        """
        if isinstance(outcome, CellFailure):
            return CellResult.from_failure(outcome)
        # Re-key on the grid coordinate: reports label themselves with
        # self-describing names (e.g. dataset "acm@0.05", model alias
        # normalization) that must not leak into cell identity.
        result = dataclasses.replace(
            CellResult.from_report(outcome),
            platform=key[0],
            model=key[1],
            dataset=key[2],
        )
        if self.store is not None:
            # Cache writes are best-effort: a transiently failing save
            # (disk full, injected I/O fault) costs the cache entry,
            # never the computed cell.
            try:
                self.store.save(
                    self._cell_store_key(workspace, spec, key),
                    result.to_dict(),
                    schema=_CELL_SCHEMA,
                )
            except Exception as exc:
                if not RetryPolicy.is_transient(exc):
                    raise
        with workspace.lock:
            return workspace.cells.setdefault(key, result)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def cell(
        self,
        platform: str,
        model: str,
        dataset: str,
        *,
        spec: ExperimentSpec | None = None,
    ) -> CellResult:
        """Run (or fetch) one grid cell by coordinate.

        ``platform`` is resolved through the registry, so any
        ``@register_platform`` entry is accepted — the cell does not
        have to appear in the spec's own grid.
        """
        spec = self.spec if spec is None else spec
        workspace = self._workspace(spec)
        key: GridKey = (platform, model, dataset)
        result = self._peek(workspace, spec, key)
        if result is None:
            result = self._compute(workspace, spec, key)
        return result

    # ------------------------------------------------------------------
    # Service hooks (used by repro.service; stable but low-level)
    # ------------------------------------------------------------------

    def cell_content_key(
        self, key: GridKey, *, spec: ExperimentSpec | None = None
    ) -> str:
        """Content key of one grid cell, independent of any store.

        Two submissions map to the same key exactly when they denote
        the same computation: same grid coordinate, same seed/scale,
        same *resolved* workload recipe (scenario refs canonicalize
        before digesting) and same platform configuration. The service
        registry dedupes in-flight work on this key.
        """
        spec = self.spec if spec is None else spec
        digest = self._cell_digest(self._workspace(spec), spec, key)
        return config_digest(*key, digest)

    def peek_cell(
        self, key: GridKey, *, spec: ExperimentSpec | None = None
    ) -> CellResult | None:
        """Memo or store lookup of one cell; never simulates.

        This is the warm path of the service layer: store hits are
        served straight from here without touching the job queue.
        """
        spec = self.spec if spec is None else spec
        return self._peek(self._workspace(spec), spec, key)

    def compute_cells(
        self,
        cells: list[GridKey],
        *,
        spec: ExperimentSpec | None = None,
        jobs: int | None = None,
        retry: RetryPolicy | None = None,
        on_error: str = "collect",
    ) -> Iterator[tuple[GridKey, CellResult]]:
        """Compute the given cells, yielding ``(key, result)`` as each
        completes.

        The one execution block behind :meth:`run_iter` and the service
        dispatcher (which batches cells from *many* client specs that
        share a workspace). It takes an explicit cell list, skips the
        warm peek (the caller already peeked), and yields the grid key
        next to every result. Serially each dataset is built by its
        first cell; the process pool warms the batch's datasets before
        it fans out. Finalization (persist + memo) happens parent-side,
        so results are bit-identical to a serial :meth:`run` at any
        ``jobs``.
        """
        spec = self.spec if spec is None else spec
        workspace = self._workspace(spec)
        if not cells:
            return
        jobs = self.jobs if jobs is None else max(1, int(jobs))
        # run_cells cancels not-yet-started cells when its generator is
        # closed, waiting only for the ones already in flight. A
        # consumer that abandons *this* generator (a disconnecting
        # client dropping its stream) raises GeneratorExit at our yield
        # — the explicit close() in the finally block propagates the
        # abandonment inward *synchronously*, so pool shutdown happens
        # here and now rather than whenever the inner generator is
        # garbage collected (pending futures, worker processes and shm
        # segments would otherwise outlive the consumer). run_iter
        # closes this generator the same way.
        inner = workspace.runner.run_cells(
            cells, jobs=jobs, retry=retry, on_error=on_error
        )
        try:
            for key, outcome in inner:
                yield key, self._finalize(workspace, spec, key, outcome)
        finally:
            inner.close()

    def run_iter(
        self,
        spec: ExperimentSpec | None = None,
        *,
        jobs: int | None = None,
        progress: ProgressCallback | None = None,
        on_error: str = "raise",
        retry: RetryPolicy | None = None,
    ) -> Iterator[CellResult]:
        """Yield every grid cell exactly once, as each one completes.

        Cached cells (session memo or store hits) are yielded first —
        without generating a single graph — then the remaining cells
        run through :meth:`compute_cells` (serially, or on the process
        pool when ``jobs > 1``) and stream back in completion order.
        The union of yielded cells always equals ``spec.cells()``; only
        the order varies with ``jobs`` — the results themselves are
        bit-identical across worker counts.

        With ``on_error="collect"`` cell failures are isolated: a
        failing cell yields ``CellResult(status="failed")`` (typed
        failure attached) and every other cell still runs — the
        exactly-once guarantee covers failures too. ``retry`` governs
        transient-error retries per cell (see :class:`RetryPolicy`).
        """
        if on_error not in ("raise", "collect"):
            raise ValueError(
                "on_error must be one of ('raise', 'collect'), "
                f"got {on_error!r}"
            )
        spec = self.spec if spec is None else spec
        workspace = self._workspace(spec)
        # Resolve every platform up front so an unknown name fails
        # before any simulation work starts.
        for name in spec.platforms:
            workspace.runner.platform(name)
        cells = list(spec.cells())
        total = len(cells)
        done = 0

        def emit(result: CellResult) -> CellResult:
            nonlocal done
            done += 1
            if progress is not None:
                progress(done, total, result)
            return result

        pending: list[GridKey] = []
        for key in cells:
            result = self._peek(workspace, spec, key)
            if result is None:
                pending.append(key)
            else:
                yield emit(result)
        if not pending:
            return
        computed = self.compute_cells(
            pending, spec=spec, jobs=jobs, retry=retry, on_error=on_error
        )
        try:
            for _, result in computed:
                yield emit(result)
        finally:
            computed.close()

    def run(
        self,
        spec: ExperimentSpec | None = None,
        *,
        jobs: int | None = None,
        progress: ProgressCallback | None = None,
        on_error: str = "raise",
        retry: RetryPolicy | None = None,
    ) -> GridResult:
        """Execute the whole grid and return it in canonical order.

        The result is independent of worker count and completion
        order: cells are sorted back into ``spec.cells()`` order, and
        ``GridResult.from_dict(result.to_dict())`` round-trips
        bit-identically.

        With ``on_error="collect"`` the returned grid may contain
        ``status="failed"`` cells; its derived reports then degrade
        gracefully over the surviving cells
        (:meth:`GridResult.failures` lists the casualties).
        """
        spec = self.spec if spec is None else spec
        collected: dict[GridKey, CellResult] = {}
        for result in self.run_iter(
            spec,
            jobs=jobs,
            progress=progress,
            on_error=on_error,
            retry=retry,
        ):
            collected[result.key] = result
        return GridResult(
            spec=spec, cells=tuple(collected[key] for key in spec.cells())
        )

    def store_stats(self) -> dict[str, int] | None:
        """Live counters of the session's store (``None`` when storeless).

        Includes the crash-safety counters (``quarantined``,
        ``evicted``, ``read_errors``) next to hits/misses/puts — the
        numbers ``evaluate --store-stats`` and the service layer
        surface.
        """
        if self.store is None:
            return None
        return self.store.stats.as_dict()
