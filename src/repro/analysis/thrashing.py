"""Buffer-thrashing analysis (§3 and Fig. 2).

Runs the accelerator's NA stage per dataset and reports how many times
each vertex's feature was replaced from the buffer, the ratio of
vertices at each replacement count, and the ratio of DRAM accesses they
caused -- the two series of Fig. 2.

The run is routed through the platform registry, so the CLI's
``thrash`` command, the Fig. 2 benchmark and ad-hoc analyses all
profile exactly the same platform construction (and registered
accelerator variants can be profiled by name).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerator.config import HiHGNNConfig
from repro.graph.hetero import HeteroGraph
from repro.graph.semantic import SemanticGraph
from repro.models.base import ModelConfig
from repro.platforms.base import PlatformContext
from repro.platforms.registry import create_platform
from repro.restructure.restructure import GraphRestructurer

__all__ = ["ThrashingProfile", "thrashing_analysis"]


@dataclass
class ThrashingProfile:
    """Replacement statistics of one (dataset, model) NA run."""

    dataset: str
    model: str
    histogram: dict[int, dict[str, float]]
    redundant_accesses: int
    total_na_misses: int
    na_hit_ratio: float

    @property
    def redundancy_fraction(self) -> float:
        """Share of NA DRAM fetches that are re-fetches (pure waste)."""
        if self.total_na_misses == 0:
            return 0.0
        return self.redundant_accesses / self.total_na_misses

    def thrashing_vertex_ratio(self) -> float:
        """Percent of fetched vertices replaced at least once."""
        return sum(b["vertex_ratio"] for b in self.histogram.values())

    def thrashing_access_ratio(self) -> float:
        """Percent of DRAM accesses made by replaced vertices."""
        return sum(b["access_ratio"] for b in self.histogram.values())

    def as_report(
        self, *, platform: str = "hihgnn", restructured: bool = False
    ):
        """The typed, serializable :class:`repro.api.results.ThrashingReport`."""
        from repro.api.results import ThrashingReport

        return ThrashingReport.from_profile(
            self, platform=platform, restructured=restructured
        )


def thrashing_analysis(
    graph: HeteroGraph,
    model_name: str = "rgcn",
    *,
    platform: str = "hihgnn",
    config: HiHGNNConfig | None = None,
    model_config: ModelConfig | None = None,
    restructurer: GraphRestructurer | None = None,
    semantic_graphs: list[SemanticGraph] | None = None,
) -> ThrashingProfile:
    """Measure Fig. 2's replacement statistics on one dataset.

    Args:
        graph: the dataset.
        model_name: HGNN model (the paper uses RGCN for Fig. 2).
        platform: registry name of the accelerator platform to profile
            (must produce a :class:`SimulationReport`-shaped result
            with NA stage totals).
        config: accelerator configuration (Table 3 defaults).
        model_config: model hyper-parameters.
        restructurer: when given, profiles the restructured execution
            instead (used to show the histogram collapsing). Forwarded
            through the platform's ``simulate``.
        semantic_graphs: pre-built SGB output to reuse across runs.
    """
    context = PlatformContext(
        accelerator=config or HiHGNNConfig(),
        model_config=model_config or ModelConfig(),
    )
    target = create_platform(platform, context)
    artifacts = target.prepare(graph, semantic_graphs)
    extra = {"restructurer": restructurer} if restructurer is not None else {}
    report = target.simulate(model_name, artifacts, **extra)
    na = report.stage_totals["na"]
    return ThrashingProfile(
        dataset=graph.name,
        model=model_name,
        histogram=report.na_replacement_histogram,
        redundant_accesses=report.na_redundant_accesses,
        total_na_misses=na.buffer_misses,
        na_hit_ratio=report.na_hit_ratio,
    )
