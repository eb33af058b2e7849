"""Zero-copy shared-memory publication of dataset topology artifacts.

No grid path publishes any more: the process pool gives each dataset
one owner process that builds it (:mod:`repro.platforms.runner`). The
module stays while ``perfbench/spans.py`` patches
:func:`publish_artifacts` by name.

A publisher avoids re-paying topology-artifact construction (CSR
sorts, NA trace gathers, stack distances) once per worker, or
pickling tens of megabytes of arrays per task. It *publishes* each
warmed :class:`~repro.platforms.base.DatasetArtifacts` once:

1. every contiguous numpy array of every semantic graph
   (:meth:`SemanticGraph.topology_arrays`) is packed, 64-byte aligned,
   into one shared segment;
2. a small picklable :class:`ArtifactsHandle` (segment name, array
   table-of-contents, scalar graph metadata, content digest) travels
   to the workers through the pool initializer;
3. each worker attaches the segment and rebuilds the artifacts as
   **read-only zero-copy views** via the trusted constructors
   (:meth:`CSR.from_parts`, :meth:`SemanticGraph.from_shared`,
   :meth:`TraceArtifact.from_parts`) — no sort, no gather, no copy.

Two interchangeable backends:

- ``"shm"`` — POSIX shared memory via :mod:`multiprocessing.shared_memory`
  (``/dev/shm`` on Linux). Default where available.
- ``"mmap"`` — a file in the temp directory mapped with :mod:`mmap`.
  Fallback for platforms/containers without POSIX shared memory, and
  selectable via ``REPRO_SHM_BACKEND=mmap``.

Lifecycle hygiene
-----------------

Segments are owned by the process that created them. The owner unlinks
on :meth:`ArtifactSegment.close` — called explicitly, by a
``weakref.finalize`` when the segment is garbage collected, and
(because ``finalize`` registers with ``atexit``) on normal interpreter
exit and ``KeyboardInterrupt``. Attaching workers *unregister* the
segment from their ``resource_tracker`` immediately: on Python 3.11
the tracker would otherwise both warn about and unlink segments it
never owned when the worker exits (bpo-39959). Worker crashes cannot
leak segments for the same reason — only the parent owns them.

A 64-byte header holding the SHA-256 of the table-of-contents plus the
publisher's content digest is written at offset 0 and verified on
attach, so a stale or recycled segment name fails loudly instead of
serving wrong topology.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import secrets
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.faults import inject
from repro.graph.hetero import HeteroGraph, Relation
from repro.graph.semantic import SemanticGraph

__all__ = [
    "ArraySpec",
    "SegmentHandle",
    "ArtifactSegment",
    "AttachedSegment",
    "ArtifactsHandle",
    "publish_artifacts",
    "attach_artifacts",
    "SegmentIntegrityError",
]

ENV_SHM_BACKEND = "REPRO_SHM_BACKEND"
_BACKENDS = ("shm", "mmap")
_ALIGN = 64
_HEADER_BYTES = 64
#: Segment name prefix (kept short: macOS caps POSIX shm names at 31).
_NAME_PREFIX = "repro-"

#: Segment names created (owned) by this process. Attaching to one of
#: these must NOT unregister it from the resource tracker — the owner's
#: registration is legitimate and backs the exit-time safety net.
_OWNED_NAMES: set[str] = set()


class SegmentIntegrityError(RuntimeError):
    """An attached segment does not match its handle's digest/layout."""


def _segment_name() -> str:
    # repro: lint-ok[REP001] segment names need OS-wide uniqueness, not
    # reproducibility — no simulation result ever depends on the name
    return f"{_NAME_PREFIX}{os.getpid() % 100000}-{secrets.token_hex(6)}"


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


@dataclass(frozen=True)
class ArraySpec:
    """Table-of-contents entry: where one named array lives."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


def _layout_digest(arrays: tuple[ArraySpec, ...], digest: str) -> bytes:
    """Header bytes binding the TOC and the publisher's content digest."""
    h = hashlib.sha256()
    h.update(digest.encode())
    for spec in arrays:
        h.update(
            f"{spec.name}|{spec.dtype}|{spec.shape}|{spec.offset}".encode()
        )
    return h.digest()  # 32 bytes, zero-padded to _HEADER_BYTES on write


@dataclass(frozen=True)
class SegmentHandle:
    """Picklable address of one published segment.

    ``name`` is the POSIX shared-memory name (``backend="shm"``) or
    the absolute file path (``backend="mmap"``). ``digest`` is the
    publisher's content digest, bound into the segment header.
    """

    backend: str
    name: str
    size: int
    arrays: tuple[ArraySpec, ...]
    digest: str

    def attach(self) -> "AttachedSegment":
        """Map the segment read-only and verify its header."""
        return AttachedSegment(self)


class AttachedSegment:
    """A worker-side read-only mapping of a published segment."""

    def __init__(self, handle: SegmentHandle) -> None:
        inject("shm.attach", key=handle.name)
        self.handle = handle
        self._shm = None
        self._mm = None
        if handle.backend == "shm":
            from multiprocessing import shared_memory

            self._shm = shared_memory.SharedMemory(name=handle.name)
            # Python 3.11's resource tracker registers *attached*
            # segments as if this process owned them, then unlinks and
            # warns at exit. Only the publisher owns the segment — keep
            # the registration only in the owning process.
            if handle.name not in _OWNED_NAMES:
                _untrack(self._shm)
            self._buf = self._shm.buf
        elif handle.backend == "mmap":
            with open(handle.name, "rb") as fh:
                self._mm = mmap.mmap(
                    fh.fileno(), handle.size, access=mmap.ACCESS_READ
                )
            self._buf = memoryview(self._mm)
        else:  # pragma: no cover - handle constructed by this module
            raise ValueError(f"unknown segment backend {handle.backend!r}")
        if self._shm is not None:
            # At garbage collection ``SharedMemory.__del__`` may run
            # while numpy views still export the buffer and raise an
            # ignored ``BufferError``; neutralize the mapping first.
            self._shm_finalizer = weakref.finalize(
                self, _quiet_close_shm, self._shm
            )
        expected = _layout_digest(handle.arrays, handle.digest)
        if bytes(self._buf[: len(expected)]) != expected:
            self.close()
            raise SegmentIntegrityError(
                f"segment {handle.name!r} does not match its handle "
                "(stale name or corrupted mapping)"
            )

    def array(self, name: str) -> np.ndarray:
        """The named array as a read-only zero-copy view."""
        for spec in self.handle.arrays:
            if spec.name == name:
                view = np.frombuffer(
                    self._buf,
                    dtype=np.dtype(spec.dtype),
                    count=int(np.prod(spec.shape, dtype=np.int64)),
                    offset=spec.offset,
                ).reshape(spec.shape)
                view.flags.writeable = False
                return view
        raise KeyError(f"segment has no array named {name!r}")

    def arrays(self) -> dict[str, np.ndarray]:
        """All arrays, keyed by TOC name (read-only views)."""
        return {spec.name: self.array(spec.name) for spec in self.handle.arrays}

    def close(self) -> None:
        """Unmap (views into the segment become invalid). Idempotent.

        Tolerates live numpy views (``BufferError``): the mapping then
        stays until the views die, which is safe — attached segments
        are read-only and never owned by this process.
        """
        self._buf = None
        if self._shm is not None:
            _quiet_close_shm(self._shm)
            self._shm = None
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                pass  # views keep the mapping; reclaimed when they die
            self._mm = None


def _quiet_close_shm(shm) -> None:
    """Close a ``SharedMemory`` mapping without ever raising.

    With live numpy views the buffer cannot be released; drop the
    mapping references instead (the views keep it alive, and CPython
    reclaims it silently when they die) and close the descriptor, so
    nothing leaks and ``SharedMemory.__del__`` cannot raise an ignored
    ``BufferError`` at a later garbage collection.
    """
    try:
        shm.close()
        return
    except BufferError:
        pass
    try:  # pragma: no cover - CPython SharedMemory internals
        shm._buf = None
        shm._mmap = None
        fd = getattr(shm, "_fd", -1)
        if fd >= 0:
            os.close(fd)
            shm._fd = -1
    except Exception:
        pass


def _untrack(shm) -> None:
    """Remove an attached-only segment from this process's tracker."""
    try:  # pragma: no cover - tracker layout is a CPython detail
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class ArtifactSegment:
    """One owned shared segment packing named contiguous arrays.

    Created by the publisher; :attr:`handle` is the picklable address
    workers attach through. :meth:`close` unmaps *and unlinks* — the
    segment does not outlive its owner.
    """

    def __init__(self, backend, name, size, arrays, digest, shm, mm, path):
        self.backend = backend
        self.name = name
        self.size = size
        self._arrays = arrays
        self.digest = digest
        self._shm = shm
        self._mm = mm
        self._path = path
        self._closed = False
        # Runs on explicit close, on GC of the segment, and at
        # interpreter exit (finalize registers with atexit) — normal
        # exit, KeyboardInterrupt and worker crashes all reclaim.
        self._finalizer = weakref.finalize(
            self, _release_segment, backend, name, shm, mm, path
        )

    @classmethod
    def create(
        cls,
        arrays: dict[str, np.ndarray],
        *,
        digest: str = "",
        backend: str | None = None,
    ) -> "ArtifactSegment":
        """Pack ``arrays`` into a fresh shared segment.

        ``backend=None`` honours ``$REPRO_SHM_BACKEND`` and otherwise
        tries POSIX shared memory first, falling back to a mapped temp
        file when the platform refuses.
        """
        if backend is None:
            backend = os.environ.get(ENV_SHM_BACKEND) or None
        if backend is not None and backend not in _BACKENDS:
            raise ValueError(
                f"unknown shm backend {backend!r}; known: {_BACKENDS}"
            )
        specs: list[ArraySpec] = []
        offset = _HEADER_BYTES
        contiguous: dict[str, np.ndarray] = {}
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            contiguous[name] = array
            offset = _align(offset)
            specs.append(
                ArraySpec(
                    name=name,
                    dtype=array.dtype.str,
                    shape=tuple(int(d) for d in array.shape),
                    offset=offset,
                )
            )
            offset += array.nbytes
        size = max(offset, _HEADER_BYTES + 1)
        toc = tuple(specs)

        name = _segment_name()
        inject("shm.publish", key=name)
        shm = mm = path = None
        if backend in (None, "shm"):
            try:
                from multiprocessing import shared_memory

                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
                _OWNED_NAMES.add(name)
                backend = "shm"
                buf = shm.buf
            except OSError:
                if backend == "shm":
                    raise
                backend = None
        if backend in (None, "mmap"):
            path = Path(tempfile.gettempdir()) / f"{name}.shm"
            with open(path, "wb") as fh:
                fh.truncate(size)
            fd = os.open(path, os.O_RDWR)
            try:
                mm = mmap.mmap(fd, size)
            finally:
                os.close(fd)
            backend = "mmap"
            buf = memoryview(mm)

        header = _layout_digest(toc, digest)
        buf[: len(header)] = header
        for spec, array in zip(toc, contiguous.values()):
            if array.nbytes:
                buf[spec.offset : spec.offset + array.nbytes] = (
                    array.tobytes()
                )
        return cls(
            backend=backend,
            name=name if backend == "shm" else str(path),
            size=size,
            arrays=toc,
            digest=digest,
            shm=shm,
            mm=mm,
            path=path,
        )

    @property
    def handle(self) -> SegmentHandle:
        return SegmentHandle(
            backend=self.backend,
            name=self.name,
            size=self.size,
            arrays=self._arrays,
            digest=self.digest,
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "ArtifactSegment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _release_segment(backend, name, shm, mm, path) -> None:
    """Owner-side teardown: unmap then unlink (idempotent, exception-free)."""
    _OWNED_NAMES.discard(name)
    if backend == "shm" and shm is not None:
        try:
            _quiet_close_shm(shm)
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass
    if mm is not None:
        try:
            mm.close()
        except Exception:
            pass
    if path is not None:
        try:
            os.unlink(path)
        except OSError:
            pass


# ----------------------------------------------------------------------
# DatasetArtifacts publication
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArtifactsHandle:
    """Picklable description of one published :class:`DatasetArtifacts`.

    Carries the segment handle plus every scalar needed to rebuild the
    :class:`HeteroGraph` and its warmed semantic graphs on attach. The
    ``digest`` (also bound into the segment header) identifies the
    workload recipe the parent built, so a worker can prove it
    attached the artifacts its cells expect.
    """

    segment: SegmentHandle
    graph_name: str
    vertex_types: tuple[tuple[str, int, int], ...]  # (type, count, feat_dim)
    graphs: tuple[tuple, ...]  # per-sg (prefix, topology_meta items)

    @property
    def digest(self) -> str:
        return self.segment.digest


def publish_artifacts(
    artifacts,
    *,
    digest: str = "",
    backend: str | None = None,
) -> tuple[ArtifactSegment, ArtifactsHandle]:
    """Pack one warmed dataset's topology into a shared segment.

    Returns the owned segment (caller manages its lifecycle) and the
    picklable handle workers attach through. Array names are prefixed
    ``sg<i>.`` per semantic graph, in SGB order.
    """
    graph: HeteroGraph = artifacts.graph
    arrays: dict[str, np.ndarray] = {}
    metas: list[tuple] = []
    for i, sg in enumerate(artifacts.semantic_graphs):
        prefix = f"sg{i}."
        for name, array in sg.topology_arrays().items():
            arrays[prefix + name] = array
        metas.append((prefix, tuple(sorted(sg.topology_meta().items()))))
    segment = ArtifactSegment.create(arrays, digest=digest, backend=backend)
    handle = ArtifactsHandle(
        segment=segment.handle,
        graph_name=graph.name,
        vertex_types=tuple(
            (vtype, graph.num_vertices(vtype), graph.feature_dim(vtype))
            for vtype in graph.vertex_types
        ),
        graphs=tuple(metas),
    )
    return segment, handle


def attach_artifacts(handle: ArtifactsHandle):
    """Rebuild read-only :class:`DatasetArtifacts` from a published handle.

    Zero-copy: every array of every semantic graph (and the hetero
    graph's edge arrays, which the SGB stage shares with them) is a
    view into the attached segment. The returned object keeps the
    mapping alive via an ``_attached_segment`` reference; it lives for
    the worker's lifetime.
    """
    from repro.platforms.base import DatasetArtifacts

    attached = handle.segment.attach()
    semantic_graphs: list[SemanticGraph] = []
    edges: dict[Relation, tuple[np.ndarray, np.ndarray]] = {}
    for prefix, meta_items in handle.graphs:
        meta = dict(meta_items)
        sg_arrays = {
            name[len(prefix):]: attached.array(name)
            for name in (
                spec.name
                for spec in handle.segment.arrays
                if spec.name.startswith(prefix)
            )
        }
        sg = SemanticGraph.from_shared(meta, sg_arrays)
        semantic_graphs.append(sg)
        edges[sg.relation] = (sg.src, sg.dst)
    graph = HeteroGraph(
        num_vertices={t: n for t, n, _ in handle.vertex_types},
        feature_dims={t: d for t, _, d in handle.vertex_types},
        edges=edges,
        name=handle.graph_name,
    )
    artifacts = DatasetArtifacts(graph=graph, semantic_graphs=semantic_graphs)
    artifacts._attached_segment = attached
    return artifacts
