"""GPU platform adapters: T4 and A100 as registry entries.

A GPU variant (different card, scaled bandwidth, ...) is one subclass
with a ``gpu_config`` and one ``@register_platform`` decorator::

    @register_platform("a100-2x-bw")
    class DoubledBandwidthA100(GPUPlatform):
        gpu_config = dataclasses.replace(A100, mem_bw_gbps=3110.0)
"""

from __future__ import annotations

from typing import ClassVar

from repro.gpu.config import A100, T4, GPUConfig
from repro.gpu.gpumodel import GPUReport, GPUSimulator, replay_l2
from repro.platforms.base import DatasetArtifacts, Platform
from repro.platforms.registry import register_platform

__all__ = ["GPUPlatform", "T4Platform", "A100Platform"]


class GPUPlatform(Platform):
    """DGL-on-GPU roofline simulation of one card.

    The L2 replay is model-independent, so every model's cell on one
    :class:`DatasetArtifacts` reads one memoized :func:`replay_l2`,
    keyed by the whole card config and the feature-vector size.
    """

    gpu_config: ClassVar[GPUConfig]

    def simulate(
        self, model_name: str, artifacts: DatasetArtifacts, **kwargs
    ) -> GPUReport:
        config = self.gpu_config
        entry_bytes = self.context.model_config.feature_vector_bytes
        l2_pass = artifacts.derived(
            ("gpu-l2", config, entry_bytes),
            lambda graphs: replay_l2(graphs, config, entry_bytes),
        )
        simulator = GPUSimulator(config, self.context.model_config)
        report = simulator.run(
            artifacts.graph,
            model_name,
            semantic_graphs=artifacts.semantic_graphs,
            l2_pass=l2_pass,
            **kwargs,
        )
        return self._labelled(report)

    def digest_sources(self) -> tuple:
        return (self.gpu_config, self.context.model_config)


@register_platform("t4")
class T4Platform(GPUPlatform):
    """NVIDIA T4 running DGL (the paper's normalization baseline)."""

    gpu_config = T4


@register_platform("a100")
class A100Platform(GPUPlatform):
    """NVIDIA A100 running DGL."""

    gpu_config = A100
