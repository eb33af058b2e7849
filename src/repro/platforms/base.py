"""The platform abstraction: what every simulated target must provide.

A *platform* is one column of the paper's evaluation grid (T4, A100,
HiHGNN, HiHGNN+GDR-HGNN, or any variant an experiment registers). Each
platform turns a dataset into shared topology artifacts (:meth:`Platform.prepare`)
and simulates one model on those artifacts (:meth:`Platform.simulate`).
The split matters for the grid runner: ``prepare`` output is
topology shared read-only by every platform x model cell, plus a
lock-guarded memo of model-independent passes (GDR frontend passes,
GPU L2 replays, HiHGNN NA lane segments) filled lazily; ``simulate`` owns all other mutable
state and fans out across workers.

Adapters for the four paper platforms live next to the simulators they
wrap (:mod:`repro.gpu.platform`, :mod:`repro.accelerator.platform`,
:mod:`repro.frontend.platform`) and register themselves with
:func:`repro.platforms.registry.register_platform`.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, ClassVar, TypeVar

from repro.accelerator.config import HiHGNNConfig
from repro.frontend.config import GDRConfig
from repro.graph.hetero import HeteroGraph
from repro.graph.semantic import SemanticGraph, build_semantic_graphs
from repro.models.base import ModelConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.frontend.gdr import FrontendPass, GDRFrontend

__all__ = ["PlatformContext", "DatasetArtifacts", "Platform"]

T = TypeVar("T")


@dataclass(frozen=True)
class PlatformContext:
    """Configuration bundle handed to every platform adapter.

    Adapters pick the pieces they need (GPU platforms only read
    ``model_config``; the GDR system reads all three) and declare which
    pieces feed their artifact-store digest via
    :meth:`Platform.digest_sources`.
    """

    accelerator: HiHGNNConfig = field(default_factory=HiHGNNConfig)
    frontend: GDRConfig = field(default_factory=GDRConfig)
    model_config: ModelConfig = field(default_factory=ModelConfig)


@dataclass
class DatasetArtifacts:
    """Shared per-dataset artifacts: read-only topology, one derived memo.

    Holds the dataset graph and its SGB output with every lazy
    per-semantic-graph memo (CSR/CSC views, active vertex sets, NA
    trace, replay artifact and its stack distances) forced eagerly by
    :meth:`build`, so concurrent ``simulate`` calls never race on cache
    fills. The one mutable part is the lock-guarded memo behind
    :meth:`derived`: model-independent passes over the semantic graphs
    (the GDR frontend pass with its leaf replay artifacts, each GPU's
    L2 replay, the stack distances of each multi-leaf HiHGNN NA lane
    segment), each computed on first use by the first cell that needs
    it and only read afterwards. Nothing fills it eagerly, and a
    process-pool worker fills its own.
    """

    graph: HeteroGraph
    semantic_graphs: list[SemanticGraph]

    def __post_init__(self) -> None:
        self._passes: dict[tuple, Any] = {}
        self._lock = threading.Lock()

    def derived(self, key: tuple, compute: Callable[[list[SemanticGraph]], T]) -> T:
        """``compute(semantic_graphs)``, computed once per ``key``.

        ``key`` must name every parameter the result depends on; the
        cells sharing it must depend on nothing else, and only read the
        result.
        """
        with self._lock:
            if key not in self._passes:
                self._passes[key] = compute(self.semantic_graphs)
            return self._passes[key]

    def frontend_pass(self, frontend: GDRFrontend) -> FrontendPass:
        """``frontend``'s pass over every semantic graph, memoized.

        A pass depends on topology and :attr:`GDRFrontend.key`, never on
        the model, so every cell on these artifacts shares one.
        """
        return self.derived(("frontend", *frontend.key), frontend.run_pass)

    @classmethod
    def build(
        cls,
        graph: HeteroGraph,
        semantic_graphs: list[SemanticGraph] | None = None,
    ) -> "DatasetArtifacts":
        """Build (or adopt) the SGB output and warm all topology caches.

        The topology is held once: the semantic graphs share the graph's
        read-only edge arrays, and a reverse relation's CSR, CSC and
        active sets are its twin's objects (see
        :func:`~repro.graph.semantic.build_semantic_graphs`), so warming
        a transpose pair sorts each adjacency once.
        """
        if semantic_graphs is None:
            semantic_graphs = build_semantic_graphs(graph)
        for sg in semantic_graphs:
            sg.csr
            sg.csc
            sg.active_src()
            sg.active_dst()
            sg.na_replay().distances
        return cls(graph=graph, semantic_graphs=semantic_graphs)


class Platform(abc.ABC):
    """One simulated execution target of the evaluation grid.

    Subclasses set :attr:`name` via the ``@register_platform("...")``
    decorator and implement :meth:`simulate`. The default
    :meth:`prepare` builds the shared topology artifacts; platforms
    with extra per-dataset preprocessing may extend it.
    """

    name: ClassVar[str] = ""

    def __init__(self, context: PlatformContext | None = None) -> None:
        self.context = context or PlatformContext()

    def prepare(
        self,
        graph: HeteroGraph,
        semantic_graphs: list[SemanticGraph] | DatasetArtifacts | None = None,
    ) -> DatasetArtifacts:
        """Turn one dataset into simulation-ready shared artifacts.

        Accepts raw SGB output (warmed and wrapped) or an already-built
        :class:`DatasetArtifacts` (returned as-is).
        """
        if isinstance(semantic_graphs, DatasetArtifacts):
            return semantic_graphs
        return DatasetArtifacts.build(graph, semantic_graphs)

    @abc.abstractmethod
    def simulate(self, model_name: str, artifacts: DatasetArtifacts, **kwargs):
        """Simulate one model on prepared artifacts; returns a report."""

    def _labelled(self, report):
        """Stamp the registry name on a report (variant subclasses would
        otherwise carry the wrapped simulator's base label)."""
        if self.name:
            report.platform = self.name
        return report

    def run(
        self,
        graph: HeteroGraph,
        model_name: str,
        *,
        semantic_graphs: list[SemanticGraph] | DatasetArtifacts | None = None,
        **kwargs,
    ):
        """Convenience: ``simulate(prepare(...))`` in one call."""
        return self.simulate(
            model_name, self.prepare(graph, semantic_graphs), **kwargs
        )

    def digest_sources(self) -> tuple:
        """Objects whose configuration identifies this platform's results.

        Used by the artifact store: two runs whose digest sources
        ``repr`` identically may share cached reports. The default is
        the whole context (always correct, conservatively coarse);
        adapters narrow it to the configs they actually read.
        """
        return (self.context,)
