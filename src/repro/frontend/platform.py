"""GDR-HGNN platform adapter: frontend + accelerator as one entry."""

from __future__ import annotations

from repro.accelerator.hihgnn import SimulationReport
from repro.frontend.gdr import GDRHGNNSystem
from repro.platforms.base import DatasetArtifacts, Platform
from repro.platforms.registry import register_platform

__all__ = ["GDRHGNNPlatform"]


@register_platform("hihgnn+gdr")
class GDRHGNNPlatform(Platform):
    """HiHGNN fed by the pipelined GDR-HGNN restructuring frontend.

    ``simulate(..., naive=True)`` runs the frontend's original
    per-edge reference loops instead of the vectorized engines; the
    reports are bit-identical either way (CI asserts the evaluate
    goldens match with the vectorized default).
    """

    def simulate(
        self,
        model_name: str,
        artifacts: DatasetArtifacts,
        *,
        naive: bool = False,
    ) -> SimulationReport:
        system = GDRHGNNSystem(
            self.context.accelerator,
            self.context.frontend,
            self.context.model_config,
            naive=naive,
        )
        report = system.run(
            artifacts.graph,
            model_name,
            semantic_graphs=artifacts.semantic_graphs,
            frontend_pass=artifacts.frontend_pass(system.frontend),
            derived=artifacts.derived,
        )
        return self._labelled(report)

    def digest_sources(self) -> tuple:
        return (
            self.context.accelerator,
            self.context.frontend,
            self.context.model_config,
        )
