"""DGL-on-GPU performance simulator."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.gpu.config import GPUConfig, T4
from repro.graph.hetero import HeteroGraph
from repro.graph.semantic import SemanticGraph, build_semantic_graphs
from repro.memory.buffer import BufferStats, FeatureBuffer
from repro.memory.dram import DRAMStats
from repro.models.base import ModelConfig
from repro.models.workload import get_model

__all__ = ["GPUReport", "GPUSimulator", "L2Pass", "replay_l2"]

# GPUs issue DRAM requests at cache-line granularity (128 B on
# Turing/Ampere); the accelerator issues whole-feature bursts. "Number
# of DRAM accesses" (Fig. 8) counts requests, so the two platforms
# legitimately differ in requests-per-byte.
_LINE_BYTES = 128


@dataclass
class GPUReport:
    """One GPU inference run, in the same vocabulary as the accelerator."""

    platform: str
    model: str
    dataset: str
    time_ms: float
    dram: DRAMStats
    l2: BufferStats
    na_l2_hit_ratio: float
    kernel_launches: int
    stage_time_ms: dict[str, float] = field(default_factory=dict)
    na_replacement_histogram: dict[int, dict[str, float]] = field(default_factory=dict)

    @property
    def dram_bytes(self) -> int:
        return self.dram.total_bytes

    @property
    def dram_accesses(self) -> int:
        return self.dram.accesses

    _bw_util: float = 0.0

    @property
    def bandwidth_utilization(self) -> float:
        """Achieved fraction of peak DRAM bandwidth over the run."""
        return self._bw_util

    def speedup_over(self, other) -> float:
        if self.time_ms <= 0:
            return float("inf")
        return other.time_ms / self.time_ms


@dataclass(frozen=True)
class L2Pass:
    """One GPU's L2 replay of a dataset's NA traces.

    Attributes:
        misses: L2 misses per semantic graph, in input order.
        stats: the L2's statistics after the last graph.
        histogram: Fig. 2 replacement histogram of the L2's fetches.
    """

    misses: tuple[int, ...]
    stats: BufferStats
    histogram: dict[int, dict[str, float]]


def replay_l2(
    semantic_graphs: list[SemanticGraph], config: GPUConfig, entry_bytes: int
) -> L2Pass:
    """Stream every graph's NA trace through ``config``'s L2, in order.

    DGL runs relations back-to-back without flushing, so the L2 state
    carries from one graph to the next. The result depends on the
    topology, ``config`` and the feature-vector size only, never on the
    model, so every model's run on a dataset may share one.
    """
    l2 = FeatureBuffer(
        int(config.l2_bytes * config.l2_feature_fraction),
        entry_bytes,
        name=f"{config.name}-l2",
    )
    misses = tuple(
        l2.access_many(sg.na_trace(), artifact=sg.na_replay())
        for sg in semantic_graphs
    )
    return L2Pass(misses, l2.stats, l2.replacement_histogram())


class GPUSimulator:
    """Simulates DGL 1.0.2 executing an HGNN on one GPU.

    Every relation runs sequentially (DGL's per-etype loop); each
    relation-stage pays kernel launches plus framework dispatch; the NA
    gather streams the true edge trace through an L2-sized feature
    cache to obtain the miss traffic that hits DRAM.
    """

    def __init__(
        self,
        config: GPUConfig | None = None,
        model_config: ModelConfig | None = None,
    ) -> None:
        self.config = config or T4
        self.model_config = model_config or ModelConfig()

    # ------------------------------------------------------------------
    # Roofline helpers (seconds)
    # ------------------------------------------------------------------

    def _dense_time(self, flops: int, stream_bytes: int) -> float:
        cfg = self.config
        t_compute = flops / (cfg.peak_flops * cfg.gemm_efficiency)
        t_memory = stream_bytes / (cfg.peak_bytes_per_s * cfg.stream_bw_fraction)
        return max(t_compute, t_memory)

    def _scatter_time(self, flops: int, scatter_bytes: int, stream_bytes: int) -> float:
        cfg = self.config
        t_compute = flops / (cfg.peak_flops * cfg.gemm_efficiency)
        t_scatter = scatter_bytes / (cfg.peak_bytes_per_s * cfg.scatter_bw_fraction)
        t_stream = stream_bytes / (cfg.peak_bytes_per_s * cfg.stream_bw_fraction)
        return max(t_compute, t_scatter + t_stream)

    def _count_bulk(self, dram: DRAMStats, nbytes: int, *, write: bool = False) -> None:
        """Account a transfer in line-granular requests and bytes."""
        if nbytes <= 0:
            return
        chunks = -(-nbytes // _LINE_BYTES)
        if write:
            dram.writes += chunks
            dram.bytes_written += nbytes
        else:
            dram.reads += chunks
            dram.bytes_read += nbytes

    # ------------------------------------------------------------------
    # Main entry
    # ------------------------------------------------------------------

    def run(
        self,
        graph: HeteroGraph,
        model_name: str,
        *,
        semantic_graphs: list[SemanticGraph] | None = None,
        l2_pass: L2Pass | None = None,
    ) -> GPUReport:
        """Simulate one inference pass of ``model_name`` on ``graph``.

        ``l2_pass`` is :func:`replay_l2` of ``(semantic_graphs,
        self.config, feature_vector_bytes)``. Callers share one across
        models (the GPU platforms memoize it on their
        :class:`~repro.platforms.base.DatasetArtifacts`); it is only
        read. When omitted, the L2 is replayed here.
        """
        cfg = self.config
        model = get_model(model_name, self.model_config)
        mc = model.config
        fvb = mc.feature_vector_bytes
        fb = mc.feature_bytes

        if semantic_graphs is None:
            semantic_graphs = build_semantic_graphs(graph)

        if l2_pass is None:
            l2_pass = replay_l2(semantic_graphs, cfg, fvb)

        dram = DRAMStats()
        launches = 0
        seconds = cfg.fixed_overhead_ms / 1e3
        stage_time = {"ip": 0.0, "fp": 0.0, "na": 0.0, "sf": 0.0, "overhead": 0.0}
        stage_time["overhead"] += cfg.fixed_overhead_ms / 1e3

        # Input projection: one GEMM per vertex type.
        for vtype in graph.vertex_types:
            n = graph.num_vertices(vtype)
            raw = graph.feature_dim(vtype) or mc.embed_dim
            flops = n * model.input_proj_flops_per_vertex(raw)
            stream = n * raw * fb + raw * mc.embed_dim * fb + n * mc.embed_dim * fb
            t = self._dense_time(flops, stream) + cfg.kernel_launch_us / 1e6
            seconds += t
            stage_time["ip"] += t
            launches += 1
            self._count_bulk(dram, n * raw * fb + raw * mc.embed_dim * fb)
            self._count_bulk(dram, n * mc.embed_dim * fb, write=True)

        for sg, misses in zip(semantic_graphs, l2_pass.misses):
            active_src = len(sg.active_src())
            active_dst = len(sg.active_dst())
            sides = 2 if model.projects_destinations else 1

            # FP: per-relation projections (1-2 GEMM kernels).
            fp_flops = (active_src + (active_dst if sides == 2 else 0)) * (
                model.fp_flops_per_vertex()
            )
            fp_stream = (
                (active_src + (active_dst if sides == 2 else 0))
                * (mc.embed_dim * fb + fvb)
                + sides * mc.embed_dim * mc.hidden_dim * fb
            )
            t_fp = self._dense_time(fp_flops, fp_stream)
            t_fp += sides * cfg.kernel_launch_us / 1e6
            t_fp += cfg.dispatch_us_per_stage / 1e6
            launches += sides
            seconds += t_fp
            stage_time["fp"] += t_fp
            self._count_bulk(dram, fp_stream - active_src * fvb)
            self._count_bulk(dram, active_src * fvb, write=True)

            # NA: gather src features per edge through L2. Misses reach
            # DRAM as line-granular requests.
            scatter_bytes = misses * fvb
            dram.reads += misses * max(1, fvb // _LINE_BYTES)
            dram.bytes_read += misses * fvb
            stream_bytes = active_dst * fvb  # write aggregated outputs
            if model.projects_destinations:
                stream_bytes += active_dst * fvb
            # DGL's NA is 3-4 kernels: gather/SDDMM, softmax, SpMM(+norm)
            na_kernels = 4 if model.projects_destinations else 2
            # Each kernel re-reads the COO/CSR index arrays, and
            # apply_edges materializes per-edge intermediates (scores
            # for attention models, degree norms for RGCN) that are
            # written once and read back by the following kernels.
            index_bytes = sg.num_edges * 16 * na_kernels
            if model.projects_destinations:
                edge_tmp = sg.num_edges * mc.num_heads * fb
            else:
                edge_tmp = sg.num_edges * fb
            stream_bytes += index_bytes + 2 * edge_tmp
            self._count_bulk(dram, index_bytes + edge_tmp)
            self._count_bulk(dram, edge_tmp + active_dst * fvb, write=True)
            if model.projects_destinations:
                self._count_bulk(dram, active_dst * fvb, write=True)
            na_flops = sg.num_edges * model.na_flops_per_edge()
            t_na = self._scatter_time(na_flops, scatter_bytes, stream_bytes)
            t_na += na_kernels * cfg.kernel_launch_us / 1e6
            t_na += cfg.dispatch_us_per_stage / 1e6
            launches += na_kernels
            seconds += t_na
            stage_time["na"] += t_na

        # SF: per destination type, element-wise fusion kernels.
        for vtype in graph.vertex_types:
            relations_in = [
                r for r in graph.relations if r.dst_type == vtype
            ]
            if not relations_in:
                continue
            n = graph.num_vertices(vtype)
            flops = n * model.sf_flops_per_vertex(len(relations_in))
            stream = (len(relations_in) + 1) * n * fvb
            t_sf = self._dense_time(flops, stream)
            t_sf += cfg.kernel_launch_us / 1e6 + cfg.dispatch_us_per_stage / 1e6
            launches += 1
            seconds += t_sf
            stage_time["sf"] += t_sf
            self._count_bulk(dram, len(relations_in) * n * fvb)
            self._count_bulk(dram, n * fvb, write=True)

        report = GPUReport(
            platform=cfg.name,
            model=model.name,
            dataset=graph.name,
            time_ms=seconds * 1e3,
            dram=dram,
            l2=replace(l2_pass.stats),
            na_l2_hit_ratio=l2_pass.stats.hit_ratio,
            kernel_launches=launches,
            stage_time_ms={k: v * 1e3 for k, v in stage_time.items()},
            na_replacement_histogram={
                times: dict(row) for times, row in l2_pass.histogram.items()
            },
        )
        report._bw_util = (
            min(1.0, dram.total_bytes / (cfg.peak_bytes_per_s * seconds))
            if seconds > 0
            else 0.0
        )
        return report
