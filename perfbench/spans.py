"""Per-layer host-time tracing, installed from outside the program.

The benchmark times each simulator layer by wrapping that layer's
public entry point (a module function, method or classmethod) with a
span recorder. Nothing under ``src/`` is modified: :func:`install`
patches the attributes and returns a callable that restores them.

Spans nest. A span's parent is the innermost span open on the same
thread; work submitted to a ``ThreadPoolExecutor`` while a span is open
inherits that span as its parent, so fan-out children (artifact warm-up
on a pool, thread-executor cells) stay attached to the call that
spawned them. Process-pool workers inherit the wrappers by fork, but
their spans die with the worker: cells simulated there are timed only
at the ``GridRunner.run_cells`` boundary.

Generators (``GridRunner.run_cells``, ``Session.compute_cells``) are
timed per resumption: each stretch between a ``next()`` and the
following ``yield`` is one span segment, so time the consumer spends
between items is not charged to the generator. The segments of one
call form a group; children started in any segment count against the
whole group (a pool cell submitted in the first segment may run on
through later ones).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

#: Span name -> layer (the module that owns the wrapped call).
LAYER_OF = {
    "scenarios.build": "scenarios",
    "artifacts.warm": "platforms.base",
    "memory.replay": "memory",
    "runner.warm": "platforms.runner",
    "runner.fanout": "platforms.runner",
    "shm.publish": "platforms.shm",
    "frontend.restructure": "frontend",
    "frontend.decouple": "frontend",
    "frontend.recouple": "frontend",
    "accelerator.run": "accelerator",
    "gpu.run": "gpu",
    "store.load": "platforms.store",
    "store.save": "platforms.store",
    "api.decode": "api",
    "api.compute": "api",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


class Tracer:
    """In-memory span and counter sink.

    Spans are ``(name, start, end, parent, group)`` tuples indexed by
    their position in :attr:`spans`; ``parent`` is ``None`` for a root
    span, ``group`` is the index of the first segment of a generator
    call (``None`` for a plain call).
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.counts: Counter[str] = Counter()
        self.restructured: set[int] = set()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, group: int | None = None) -> int:
        """Open a span (its end is filled in by :meth:`close`)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, time.perf_counter(), 0.0, parent, group))
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if index in stack:
            stack.remove(index)
        with self._lock:
            name, start, _, parent, group = self.spans[index]
            self.spans[index] = (name, start, end, parent, group)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def note_restructured(self, graph: object) -> None:
        with self._lock:
            self.restructured.add(id(graph))

    def run_under(self, parent: int | None, fn, /, *args, **kwargs):
        """Run ``fn`` on this thread with ``parent`` as its open span."""
        saved = self._stack()
        self._local.stack = [] if parent is None else [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def export(self) -> dict:
        """JSON-friendly snapshot (the launcher ships it across processes)."""
        with self._lock:
            return {
                "spans": [list(span) for span in self.spans],
                "counts": dict(self.counts),
                "distinct_graphs": len(self.restructured),
            }


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _timed(tracer: Tracer, name: str, func, after=None):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(index)
        tracer.count(name)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _timed_generator(tracer: Tracer, name: str, func, item=None):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        inner = func(*args, **kwargs)
        group = None
        try:
            while True:
                index = tracer.open(name, group)
                if group is None:
                    group = index
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                if item is not None:
                    item(value)
                yield value
        finally:
            inner.close()

    return wrapper


def install(tracer: Tracer):
    """Wrap every traced entry point; returns the restore callable."""
    import repro.scenarios
    import repro.scenarios.workloads
    from repro.accelerator.hihgnn import HiHGNNSimulator
    from repro.api.results import CellResult
    from repro.api.session import Session
    from repro.frontend.decoupler import Decoupler
    from repro.frontend.gdr import GDRFrontend
    from repro.frontend.recoupler import Recoupler
    from repro.gpu.gpumodel import GPUSimulator
    from repro.graph.semantic import SemanticGraph
    from repro.memory.replay import TraceArtifact
    from repro.platforms import shm
    from repro.platforms.base import DatasetArtifacts
    from repro.platforms.runner import GridRunner
    from repro.platforms.store import ArtifactStore

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def graph_built(args, graph):
        tracer.count("scenarios.edges", graph.num_edges())

    load_workload = _timed(
        tracer, "scenarios.build", repro.scenarios.load_workload, graph_built
    )
    patch(repro.scenarios, "load_workload", load_workload)
    patch(repro.scenarios.workloads, "load_workload", load_workload)

    build = DatasetArtifacts.__dict__["build"].__func__
    patch(DatasetArtifacts, "build", classmethod(_timed(tracer, "artifacts.warm", build)))

    # The replay artifact and its stack distances are lazy memos; only
    # a call that actually computes one opens a span.
    def when_computing(func, computes, after=None):
        timed = _timed(tracer, "memory.replay", func, after)

        @functools.wraps(func)
        def wrapper(self):
            return timed(self) if computes(self) else func(self)

        return wrapper

    patch(SemanticGraph, "na_replay", when_computing(
        SemanticGraph.na_replay,
        lambda sg: sg._na_artifact is None,
        lambda args, artifact: tracer.count("memory.replay_accesses", artifact.n),
    ))
    patch(TraceArtifact, "distances", property(when_computing(
        TraceArtifact.__dict__["distances"].fget,
        lambda artifact: artifact._distances is None,
    )))

    patch(GridRunner, "warm_artifacts",
          _timed(tracer, "runner.warm", GridRunner.warm_artifacts))
    patch(GridRunner, "run_cells",
          _timed_generator(tracer, "runner.fanout", GridRunner.run_cells))
    patch(shm, "publish_artifacts",
          _timed(tracer, "shm.publish", shm.publish_artifacts))

    patch(GDRFrontend, "restructure",
          _timed(tracer, "frontend.restructure", GDRFrontend.restructure,
                 lambda args, result: tracer.note_restructured(args[1])))
    patch(Decoupler, "run", _timed(tracer, "frontend.decouple", Decoupler.run))
    patch(Recoupler, "run", _timed(tracer, "frontend.recouple", Recoupler.run))
    patch(HiHGNNSimulator, "run",
          _timed(tracer, "accelerator.run", HiHGNNSimulator.run))
    patch(GPUSimulator, "run", _timed(tracer, "gpu.run", GPUSimulator.run))

    def loaded(args, payload):
        if payload is not None:
            tracer.count("store.hits")

    patch(ArtifactStore, "load",
          _timed(tracer, "store.load", ArtifactStore.load, loaded))
    patch(ArtifactStore, "save", _timed(tracer, "store.save", ArtifactStore.save))

    from_dict = CellResult.__dict__["from_dict"].__func__
    patch(CellResult, "from_dict",
          classmethod(_timed(tracer, "api.decode", from_dict)))
    patch(Session, "compute_cells",
          _timed_generator(tracer, "api.compute", Session.compute_cells,
                           lambda _: tracer.count("api.cells")))

    # Pool threads start with the submitting thread's open span as
    # their parent, so fan-out children nest under the fan-out.
    submit = ThreadPoolExecutor.submit

    def traced_submit(self, fn, /, *args, **kwargs):
        return submit(self, tracer.run_under, tracer.current(), fn, *args, **kwargs)

    patch(ThreadPoolExecutor, "submit", traced_submit)

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> tuple[dict[str, float], list[tuple[float, float]]]:
    """Self time per span name, and the root-span intervals.

    A span's self time is its duration minus the part of its interval
    covered by its children (children on parallel threads may overlap;
    their union counts once). Children of a generator segment belong to
    the segment's whole group.
    """
    def key(index: int) -> int:
        group = spans[index][4]
        return index if group is None else group

    children: dict[int, list[tuple[float, float]]] = {}
    roots = []
    for name, start, end, parent, _ in spans:
        if parent is None:
            roots.append((start, end))
        else:
            children.setdefault(key(parent), []).append((start, end))
    out: dict[str, float] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        own = (end - start) - _covered(children.get(key(index), []), start, end)
        out[name] = out.get(name, 0.0) + own
    return out, roots


def layer_metrics(
    exports: list[dict], windows: list[tuple[float, float]]
) -> dict[str, float]:
    """Per-layer metrics, averaged per round, from traced rounds.

    ``exports`` holds one :meth:`Tracer.export` per traced round and
    ``windows`` the matching ``(start, end)`` of each round's timed
    section. ``trace.other_s`` is the part of a round no root span
    covers: harness, session bookkeeping and anything untraced.
    """
    rounds = max(1, len(exports))
    selfs: Counter[str] = Counter()
    counts: Counter[str] = Counter()
    distinct = 0
    other = 0.0
    for export, (start, end) in zip(exports, windows):
        own, roots = self_times(export["spans"])
        selfs.update(own)
        counts.update(export["counts"])
        distinct += export["distinct_graphs"]
        other += (end - start) - _covered(roots, start, end)

    def per_round(value: float) -> float:
        return value / rounds

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "scenarios.build_s": per_round(selfs["scenarios.build"]),
        "scenarios.builds": per_round(counts["scenarios.build"]),
        "scenarios.edges": per_round(counts["scenarios.edges"]),
        "artifacts.warm_s": per_round(selfs["artifacts.warm"]),
        "artifacts.builds": per_round(counts["artifacts.warm"]),
        "memory.replay_s": per_round(selfs["memory.replay"]),
        "memory.replay_accesses": per_round(counts["memory.replay_accesses"]),
        "runner.warm_s": per_round(selfs["runner.warm"]),
        "runner.fanout_s": per_round(selfs["runner.fanout"]),
        "shm.publish_s": per_round(selfs["shm.publish"]),
        "shm.publishes": per_round(counts["shm.publish"]),
        "frontend.restructure_s": per_round(selfs["frontend.restructure"]),
        "frontend.decouple_s": per_round(selfs["frontend.decouple"]),
        "frontend.recouple_s": per_round(selfs["frontend.recouple"]),
        "frontend.restructures": per_round(counts["frontend.restructure"]),
        "frontend.distinct_graphs": per_round(distinct),
        "frontend.redundancy": ratio(counts["frontend.restructure"], distinct),
        "accelerator.run_s": per_round(selfs["accelerator.run"]),
        "accelerator.runs": per_round(counts["accelerator.run"]),
        "gpu.run_s": per_round(selfs["gpu.run"]),
        "gpu.runs": per_round(counts["gpu.run"]),
        "store.load_s": per_round(selfs["store.load"]),
        "store.loads": per_round(counts["store.load"]),
        "store.save_s": per_round(selfs["store.save"]),
        "store.saves": per_round(counts["store.save"]),
        "store.hit_ratio": ratio(counts["store.hits"], counts["store.load"]),
        "api.decode_s": per_round(selfs["api.decode"]),
        "api.decodes": per_round(counts["api.decode"]),
        "api.compute_batches": per_round(counts["api.compute"]),
        "api.cells_per_batch": ratio(counts["api.cells"], counts["api.compute"]),
        "trace.other_s": per_round(other),
    }
    by_layer: Counter[str] = Counter()
    for name, seconds in selfs.items():
        by_layer[LAYER_OF[name]] += seconds
    total = sum(by_layer.values()) + other
    for layer in LAYERS:
        m[f"share.{layer}"] = ratio(by_layer[layer], total)
    m["share.other"] = ratio(other, total)
    return m
