"""Stage execution engines (FP / NA / SF) of the accelerator model.

Each engine turns one semantic graph into a :class:`StageReport`:
compute cycles from the datapath models, memory cycles and traffic from
the HBM model, with the NA stage additionally streaming its feature
accesses through the on-chip :class:`~repro.memory.buffer.FeatureBuffer`
so that thrashing is *measured*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accelerator.config import HiHGNNConfig
from repro.accelerator.simd import SIMDUnit
from repro.accelerator.systolic import SystolicArray
from repro.graph.csr import CSR, gather_rows
from repro.graph.semantic import SemanticGraph
from repro.memory.buffer import FeatureBuffer
from repro.memory.dram import HBMModel
from repro.memory.replay import TraceArtifact
from repro.models.base import HGNNModel

__all__ = [
    "StageReport",
    "gather_in_neighbors",
    "scheduled_na_replay",
    "InputProjectionEngine",
    "FPStageEngine",
    "NAStageEngine",
    "SFStageEngine",
]


@dataclass
class StageReport:
    """Timing and traffic of one stage invocation."""

    name: str
    compute_cycles: int = 0
    memory_cycles: int = 0
    dram_bytes_read: int = 0
    dram_bytes_written: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0

    @property
    def elapsed_cycles(self) -> int:
        """Stage latency: compute and memory overlap via double buffering."""
        return max(self.compute_cycles, self.memory_cycles)

    def merge(self, other: "StageReport") -> None:
        """Accumulate another invocation of the same stage."""
        self.compute_cycles += other.compute_cycles
        self.memory_cycles += other.memory_cycles
        self.dram_bytes_read += other.dram_bytes_read
        self.dram_bytes_written += other.dram_bytes_written
        self.buffer_hits += other.buffer_hits
        self.buffer_misses += other.buffer_misses


def gather_in_neighbors(csc: CSR, schedule: np.ndarray) -> np.ndarray:
    """Concatenate in-neighbor lists following a destination schedule.

    Vectorized equivalent of
    ``np.concatenate([csc.neighbors(v) for v in schedule])`` -- this is
    the NA stage's source-feature access trace. Thin alias of
    :func:`repro.graph.csr.gather_rows`, kept for its historical name.
    """
    return gather_rows(csc, schedule)


def scheduled_na_replay(graph: SemanticGraph, schedule: np.ndarray) -> TraceArtifact:
    """Replay artifact of ``graph``'s NA trace in ``schedule`` order.

    The source-feature reads of aggregating destinations in
    ``schedule`` order, at global feature ids. With the default
    ``active_dst`` order this is :meth:`SemanticGraph.na_replay`.
    """
    return TraceArtifact(
        gather_in_neighbors(graph.csc, schedule) + graph.src_global_base
    )


class FPStageEngine:
    """Feature projection: dense GEMMs on the systolic array.

    Raw features stream from DRAM; weights stream once per semantic
    graph; projected features are written back to DRAM, to be consumed
    by NA through the feature buffer. Similarity scheduling discounts
    the raw-feature reads of vertices shared with the previously
    executed graph of the same source type (HiHGNN's reuse mechanism),
    bounded by the FP buffer capacity.
    """

    def __init__(self, config: HiHGNNConfig, model: HGNNModel, hbm: HBMModel) -> None:
        self.config = config
        self.model = model
        self.hbm = hbm
        self.array = SystolicArray(config.systolic_rows, config.systolic_cols)

    def run(
        self,
        graph: SemanticGraph,
        previous: SemanticGraph | None = None,
    ) -> StageReport:
        cfg = self.model.config
        report = StageReport(name="fp")
        hidden = cfg.hidden_dim
        fb = cfg.feature_bytes

        # Per-relation FP consumes the embedded (embed_dim) features
        # produced by the once-per-type input projection.
        sides: list[tuple[np.ndarray, int, int]] = [
            (graph.active_src(), cfg.embed_dim, graph.src_global_base),
        ]
        if self.model.projects_destinations:
            sides.append(
                (graph.active_dst(), cfg.embed_dim, graph.dst_global_base)
            )

        reused = np.empty(0, dtype=np.int64)
        if previous is not None and (
            previous.relation.src_type == graph.relation.src_type
        ):
            reused = np.intersect1d(
                previous.active_src(), graph.active_src(), assume_unique=True
            )

        for vertices, in_dim, base in sides:
            if not len(vertices):
                continue
            fresh = len(vertices)
            if base == graph.src_global_base and len(reused):
                # Reuse is bounded by what the FP buffer could retain.
                retainable = self.config.lane_fp_buffer_bytes // max(in_dim * fb, 1)
                fresh -= min(len(reused), retainable, fresh)
            read_bytes = fresh * in_dim * fb
            weight_bytes = in_dim * hidden * fb
            out_bytes = len(vertices) * hidden * fb

            report.compute_cycles += self.array.gemm_cycles(
                len(vertices), in_dim, hidden
            )
            report.memory_cycles += self.hbm.access_bulk(
                base * in_dim * fb, max(read_bytes, 1)
            )
            report.memory_cycles += self.hbm.access_bulk(0, weight_bytes)
            report.memory_cycles += self.hbm.access_bulk(
                base * hidden * fb, out_bytes, write=True
            )
            report.dram_bytes_read += read_bytes + weight_bytes
            report.dram_bytes_written += out_bytes

        report.compute_cycles += self.config.kernel_overhead_cycles
        return report


class InputProjectionEngine:
    """Once-per-type raw -> embed projection (HGB input transform).

    Runs before any semantic graph: each vertex type's raw features
    stream from DRAM through the systolic array once, and the embedded
    features are written back for the per-relation FP stages to read.
    """

    def __init__(self, config: HiHGNNConfig, model: HGNNModel, hbm: HBMModel) -> None:
        self.config = config
        self.model = model
        self.hbm = hbm
        self.array = SystolicArray(config.systolic_rows, config.systolic_cols)

    def run(self, num_vertices: int, raw_dim: int, base: int) -> StageReport:
        cfg = self.model.config
        fb = cfg.feature_bytes
        report = StageReport(name="ip")
        if num_vertices == 0:
            return report
        in_bytes = num_vertices * raw_dim * fb
        weight_bytes = raw_dim * cfg.embed_dim * fb
        out_bytes = num_vertices * cfg.embed_dim * fb
        # One type's projection is a single dense GEMM; all lanes'
        # systolic arrays cooperate on it (rows split across lanes,
        # weights broadcast), unlike per-semantic-graph stages where a
        # lane owns a whole graph.
        report.compute_cycles = (
            -(
                -self.array.gemm_cycles(num_vertices, raw_dim, cfg.embed_dim)
                // self.config.num_lanes
            )
            + self.config.kernel_overhead_cycles
        )
        report.memory_cycles += self.hbm.access_bulk(base * raw_dim * fb, in_bytes)
        report.memory_cycles += self.hbm.access_bulk(0, weight_bytes)
        report.memory_cycles += self.hbm.access_bulk(
            base * cfg.embed_dim * fb, out_bytes, write=True
        )
        report.dram_bytes_read = in_bytes + weight_bytes
        report.dram_bytes_written = out_bytes
        return report


class NAStageEngine:
    """Neighbor aggregation: the thrashing-prone stage.

    Walks destinations in schedule order; every in-neighbor's projected
    feature is read through the lane's feature buffer. Misses become
    DRAM feature fetches (charged to the HBM model with scatter
    addressing); hits are free. Compute is charged on the SIMD unit.

    :meth:`run` replays the trace through ``feature_buffer``;
    :meth:`charge` takes misses already replayed elsewhere (the
    simulator replays each lane segment at once).
    """

    def __init__(
        self,
        config: HiHGNNConfig,
        model: HGNNModel,
        hbm: HBMModel,
        feature_buffer: FeatureBuffer | None = None,
    ) -> None:
        self.config = config
        self.model = model
        self.hbm = hbm
        self.buffer = feature_buffer
        self.simd = SIMDUnit(config.simd_width * config.num_lanes)

    def run(
        self,
        graph: SemanticGraph,
        schedule: np.ndarray | None = None,
        replay: TraceArtifact | None = None,
    ) -> StageReport:
        """Aggregate ``graph`` in ``schedule`` order (default: ``active_dst``).

        ``replay`` is :func:`scheduled_na_replay` of ``(graph,
        schedule)`` when the caller already holds it (the GDR frontend
        pass carries one per leaf); it is built here otherwise. The
        default schedule reads the graph's own cached artifact.
        """
        if graph.num_edges == 0:
            return StageReport(name="na")
        if schedule is None:
            schedule = graph.active_dst()
            replay = graph.na_replay()
        elif replay is None:
            replay = scheduled_na_replay(graph, schedule)
        _, missed_ids = self.buffer.access_many(
            replay.trace, collect_misses=True, artifact=replay
        )
        return self.charge(graph, len(schedule), replay.n, missed_ids)

    def charge(
        self,
        graph: SemanticGraph,
        num_scheduled: int,
        accesses: int,
        missed_ids: np.ndarray,
    ) -> StageReport:
        """Cost of aggregating ``num_scheduled`` destinations of ``graph``.

        ``missed_ids`` are the buffer misses among its ``accesses``
        feature reads, in request order.
        """
        cfg = self.model.config
        report = StageReport(name="na")
        if graph.num_edges == 0:
            return report
        fvb = cfg.feature_vector_bytes
        misses = len(missed_ids)
        report.buffer_hits = accesses - misses
        report.buffer_misses = misses

        # DRAM: one scatter feature fetch per miss, at the real vertex
        # addresses so the HBM model sees the true (lack of) row
        # locality of thrashing fetches.
        if misses:
            report.memory_cycles += self.hbm.access_features(missed_ids * fvb, fvb)
        report.dram_bytes_read += misses * fvb

        # Destination-side reads (attention needs h_dst for scoring);
        # destinations stream sequentially, one touch each.
        if self.model.projects_destinations:
            dst_bytes = num_scheduled * fvb
            report.memory_cycles += self.hbm.access_bulk(
                graph.dst_global_base * fvb, dst_bytes
            )
            report.dram_bytes_read += dst_bytes

        # Partial results live in the (small) output registers per lane;
        # finished aggregations write back once per destination.
        out_bytes = num_scheduled * fvb
        report.memory_cycles += self.hbm.access_bulk(
            graph.dst_global_base * fvb, out_bytes, write=True
        )
        report.dram_bytes_written += out_bytes

        flops = graph.num_edges * self.model.na_flops_per_edge()
        report.compute_cycles = (
            self.simd.elementwise_cycles(flops) + self.config.kernel_overhead_cycles
        )
        return report


class SFStageEngine:
    """Semantic fusion: element-wise combines on the SIMD module."""

    def __init__(self, config: HiHGNNConfig, model: HGNNModel, hbm: HBMModel) -> None:
        self.config = config
        self.model = model
        self.hbm = hbm
        self.simd = SIMDUnit(config.simd_width * config.num_lanes)

    def run(self, graph: SemanticGraph, num_relations_at_dst: int = 1) -> StageReport:
        cfg = self.model.config
        report = StageReport(name="sf")
        active_dst = len(graph.active_dst())
        if not active_dst:
            return report
        fvb = cfg.feature_vector_bytes
        flops = active_dst * self.model.sf_flops_per_vertex(num_relations_at_dst)
        flops //= max(num_relations_at_dst, 1)
        report.compute_cycles = (
            self.simd.elementwise_cycles(flops) + self.config.kernel_overhead_cycles
        )
        in_bytes = active_dst * fvb
        out_bytes = active_dst * fvb
        report.memory_cycles += self.hbm.access_bulk(
            graph.dst_global_base * fvb, in_bytes
        )
        report.memory_cycles += self.hbm.access_bulk(
            graph.dst_global_base * fvb, out_bytes, write=True
        )
        report.dram_bytes_read += in_bytes
        report.dram_bytes_written += out_bytes
        return report
