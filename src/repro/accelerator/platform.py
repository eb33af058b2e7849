"""HiHGNN platform adapter: the bare accelerator as a registry entry."""

from __future__ import annotations

from repro.accelerator.hihgnn import HiHGNNSimulator, SimulationReport
from repro.platforms.base import DatasetArtifacts, Platform
from repro.platforms.registry import register_platform

__all__ = ["HiHGNNPlatform"]


@register_platform("hihgnn")
class HiHGNNPlatform(Platform):
    """Cycle-approximate HiHGNN without the GDR-HGNN frontend.

    ``simulate`` forwards extra keyword arguments (``restructurer``,
    ``use_similarity_schedule``, ...) to
    :meth:`repro.accelerator.hihgnn.HiHGNNSimulator.run`, which is how
    the thrashing analysis profiles restructured-but-uncharged
    executions through the same platform entry.
    """

    def simulate(
        self, model_name: str, artifacts: DatasetArtifacts, **kwargs
    ) -> SimulationReport:
        simulator = HiHGNNSimulator(
            self.context.accelerator, self.context.model_config
        )
        report = simulator.run(
            artifacts.graph,
            model_name,
            semantic_graphs=artifacts.semantic_graphs,
            derived=artifacts.derived,
            **kwargs,
        )
        if "restructurer" in kwargs or "restructured" in kwargs:
            # Restructured profiling runs keep the simulator's own
            # "hihgnn+gdr" label (the thrashing --gdr path).
            return report
        return self._labelled(report)

    def digest_sources(self) -> tuple:
        return (self.context.accelerator, self.context.model_config)
