"""Top-level HiHGNN simulator.

Drives the stage engines over all semantic graphs of a dataset:

1. SGB produces the semantic graphs (topology-only; the accelerator
   receives CSR topology from the host as in the paper).
2. The similarity scheduler orders them for reuse and the dispatcher
   assigns them to lanes.
3. Per graph, FP / NA / SF run back-to-back on the owning lane; the
   lane's NA buffer persists across graphs of the same source type and
   flushes otherwise. Between flushes the buffer is one LRU over the
   lane's concatenated leaf traces (a *segment*): every segment is
   planned first and replayed once from stack distances composed from
   its leaves' replay artifacts (:func:`~repro.memory.replay.compose_distances`),
   memoized per dataset and shared by every model; the stage loop
   then charges each leaf's misses to the HBM model in execution
   order.
4. Optionally, a :class:`~repro.restructure.GraphRestructurer` is
   applied to every semantic graph before NA (this models the *effect*
   of GDR-HGNN's restructuring; the frontend's own cycle cost and the
   pipelining live in :mod:`repro.frontend`).

Total time is the lane makespan; DRAM traffic and bandwidth
utilization come from the shared HBM model, and the NA replacement
statistics from the segments' misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.accelerator.config import HiHGNNConfig
from repro.accelerator.scheduler import assign_lanes, similarity_schedule
from repro.accelerator.stages import (
    FPStageEngine,
    InputProjectionEngine,
    NAStageEngine,
    SFStageEngine,
    StageReport,
    scheduled_na_replay,
)
from repro.graph.hetero import HeteroGraph
from repro.graph.semantic import SemanticGraph, build_semantic_graphs
from repro.memory.buffer import FeatureBuffer, replacement_histogram_from_counts
from repro.memory.dram import DRAMStats, HBMModel
from repro.memory.replay import TraceArtifact, compose_distances
from repro.models.base import ModelConfig
from repro.models.workload import get_model
from repro.restructure.recouple import RestructureResult
from repro.restructure.restructure import GraphRestructurer

__all__ = ["SimulationReport", "HiHGNNSimulator"]


@dataclass
class SimulationReport:
    """Everything the evaluation section needs from one simulation."""

    platform: str
    model: str
    dataset: str
    total_cycles: int
    clock_ghz: float
    stage_totals: dict[str, StageReport]
    dram: DRAMStats
    na_replacement_histogram: dict[int, dict[str, float]]
    na_redundant_accesses: int
    na_hit_ratio: float
    frontend_cycles: int = 0
    lane_cycles: list[int] = field(default_factory=list)
    restructure_stats: dict[str, float] = field(default_factory=dict)
    graph_records: list[dict] = field(default_factory=list)

    @property
    def time_ms(self) -> float:
        return self.total_cycles / (self.clock_ghz * 1e9) * 1e3

    @property
    def dram_bytes(self) -> int:
        return self.dram.total_bytes

    @property
    def dram_accesses(self) -> int:
        return self.dram.accesses

    @property
    def bandwidth_utilization(self) -> float:
        """Achieved fraction of peak DRAM bandwidth over the run."""
        if self.total_cycles <= 0:
            return 0.0
        # peak bytes per cycle recorded via stage totals' clock context
        return self._bw_util

    _bw_util: float = 0.0

    def speedup_over(self, other: "SimulationReport") -> float:
        """How much faster this platform is than ``other`` (wall time)."""
        if self.time_ms <= 0:
            return float("inf")
        return other.time_ms / self.time_ms


class HiHGNNSimulator:
    """Cycle-approximate HiHGNN, optionally fed by graph restructuring."""

    def __init__(
        self,
        config: HiHGNNConfig | None = None,
        model_config: ModelConfig | None = None,
    ) -> None:
        self.config = config or HiHGNNConfig()
        self.model_config = model_config or ModelConfig()

    def run(
        self,
        graph: HeteroGraph,
        model_name: str,
        *,
        restructurer: GraphRestructurer | None = None,
        restructured: dict[str, "object"] | None = None,
        use_similarity_schedule: bool = True,
        semantic_graphs: list[SemanticGraph] | None = None,
        platform_name: str | None = None,
        derived: Callable | None = None,
        restructured_key: tuple | None = None,
        naive: bool = False,
    ) -> SimulationReport:
        """Simulate one full inference pass.

        Args:
            graph: the heterogeneous graph (dataset).
            model_name: ``"rgcn"``, ``"rgat"`` or ``"simple_hgn"``.
            restructurer: when given, every semantic graph is decoupled
                and recoupled before NA (the GDR-HGNN data path). The
                frontend's own cycles are *not* charged here -- the
                pipelined system model in :mod:`repro.frontend` adds
                them.
            restructured: precomputed restructuring results keyed by
                ``str(relation)`` (the :class:`GDRHGNNSystem` path,
                which must not re-run the algorithm it already paid
                frontend cycles for). NA replays their
                ``leaf_replays`` when filled. Mutually exclusive with
                ``restructurer``.
            use_similarity_schedule: HiHGNN's similarity scheduling
                (disable for ablations).
            semantic_graphs: pre-built SGB output to reuse across runs.
            platform_name: label for reports.
            derived: the memo of the :class:`DatasetArtifacts
                <repro.platforms.base.DatasetArtifacts>` that own
                ``semantic_graphs``; the stack distances of each lane
                segment are memoized through it, shared by every model.
                Unused with ``restructurer``.
            restructured_key: the :attr:`GDRFrontend.key
                <repro.frontend.gdr.GDRFrontend.key>` that produced
                ``restructured``; without it ``derived`` is unused.
            naive: replay each lane segment through the
                element-at-a-time :class:`FeatureBuffer` loop (the
                reference) instead of composed stack distances.

        Returns:
            A :class:`SimulationReport`.
        """
        cfg = self.config
        model = get_model(model_name, self.model_config)
        fvb = model.config.feature_vector_bytes

        if semantic_graphs is None:
            semantic_graphs = build_semantic_graphs(graph)
        if use_similarity_schedule:
            order = similarity_schedule(semantic_graphs)
        else:
            order = list(range(len(semantic_graphs)))
        ordered = [semantic_graphs[i] for i in order]

        relations_at_dst: dict[str, int] = {}
        for sg in semantic_graphs:
            dst = sg.relation.dst_type
            relations_at_dst[dst] = relations_at_dst.get(dst, 0) + 1

        hbm = HBMModel(cfg.hbm)
        fp_engine = FPStageEngine(cfg, model, hbm)
        sf_engine = SFStageEngine(cfg, model, hbm)
        na_engine = NAStageEngine(cfg, model, hbm)

        # Lane assignment from a static work proxy (edges dominate).
        cost_proxy = [
            sg.num_edges * model.na_flops_per_edge()
            + len(sg.active_src()) * (sg.src_feature_dim or 64)
            for sg in ordered
        ]
        lane_of, _ = assign_lanes(cost_proxy, cfg.num_lanes)

        # Restructure first, then replay every lane's NA segments (see
        # _lane_segments) before the stage loop charges their misses.
        results: list[RestructureResult | None] = [None] * len(ordered)
        memo = derived
        if restructured is not None:
            results = [restructured.get(str(sg.relation)) for sg in ordered]
            if restructured_key is None:
                memo = None
        elif restructurer is not None:
            # Per-call restructures have no name to memoize under.
            results = [restructurer.restructure(sg) for sg in ordered]
            memo = None
        leaves = [
            _plan_leaves(sg, result, restructured_key)
            for sg, result in zip(ordered, results)
        ]
        fetched = _replay_segments(
            _lane_segments(ordered, lane_of, leaves),
            cfg.lane_na_src_bytes,
            fvb,
            memo,
            naive,
        )

        stage_totals = {
            "ip": StageReport("ip"),
            "fp": StageReport("fp"),
            "na": StageReport("na"),
            "sf": StageReport("sf"),
        }

        # Prologue: once-per-type input projection (raw -> embed).
        # Each type's projection is one dense GEMM spread over all
        # lanes, so types run back-to-back ahead of the semantic-graph
        # pipeline.
        ip_engine = InputProjectionEngine(cfg, model, hbm)
        ip_makespan = 0
        for vtype in graph.vertex_types:
            ip_report = ip_engine.run(
                graph.num_vertices(vtype),
                graph.feature_dim(vtype) or model.config.embed_dim,
                graph.type_offset(vtype),
            )
            stage_totals["ip"].merge(ip_report)
            ip_makespan += ip_report.elapsed_cycles
        lane_cycles = [0] * cfg.num_lanes
        lane_prev: list[SemanticGraph | None] = [None] * cfg.num_lanes
        graph_records: list[dict] = []
        restructure_stats = {
            "graphs": 0.0,
            "subgraphs": 0.0,
            "backbone_vertices": 0.0,
            "matching_size": 0.0,
        }

        for idx, sg in enumerate(ordered):
            lane = lane_of[idx]
            previous = lane_prev[lane]
            fp_report = fp_engine.run(sg, previous=previous)

            result = results[idx]
            if result is not None:
                restructure_stats["graphs"] += 1
                restructure_stats["subgraphs"] += len(result.leaves())
                restructure_stats["backbone_vertices"] += result.backbone_size
                restructure_stats["matching_size"] += result.matching.size

            na_report = StageReport("na")
            for leaf in leaves[idx]:
                na_report.merge(
                    na_engine.charge(
                        leaf.graph, len(leaf.schedule), leaf.replay.n, leaf.missed
                    )
                )

            sf_report = sf_engine.run(
                sg, num_relations_at_dst=relations_at_dst[sg.relation.dst_type]
            )

            # HiHGNN pipelines the FP/NA/SF engines: while NA aggregates
            # graph k, FP already projects graph k+1 on the same lane.
            # Steady-state lane throughput is therefore the bottleneck
            # stage; the pipeline fill (one FP) and drain (one SF) are
            # exposed once per lane.
            stage_cycles = (
                fp_report.elapsed_cycles,
                na_report.elapsed_cycles,
                sf_report.elapsed_cycles,
            )
            graph_cycles = max(stage_cycles)
            if lane_prev[lane] is None:
                graph_cycles += fp_report.elapsed_cycles + sf_report.elapsed_cycles
            lane_cycles[lane] += graph_cycles
            graph_records.append(
                {
                    "relation": str(sg.relation),
                    "lane": lane,
                    "cycles": graph_cycles,
                    "edges": sg.num_edges,
                }
            )
            stage_totals["fp"].merge(fp_report)
            stage_totals["na"].merge(na_report)
            stage_totals["sf"].merge(sf_report)
            lane_prev[lane] = sg

        total_cycles = (max(lane_cycles) if lane_cycles else 0) + ip_makespan

        histogram = replacement_histogram_from_counts(fetched)
        redundant = int(fetched.sum() - len(fetched))
        na_total = stage_totals["na"]
        na_accesses = na_total.buffer_hits + na_total.buffer_misses
        na_hit_ratio = na_total.buffer_hits / na_accesses if na_accesses else 0.0

        report = SimulationReport(
            platform=platform_name
            or (
                "hihgnn+gdr"
                if restructurer is not None or restructured is not None
                else "hihgnn"
            ),
            model=model.name,
            dataset=graph.name,
            total_cycles=total_cycles,
            clock_ghz=cfg.clock_ghz,
            stage_totals=stage_totals,
            dram=hbm.stats,
            na_replacement_histogram=histogram,
            na_redundant_accesses=redundant,
            na_hit_ratio=na_hit_ratio,
            lane_cycles=lane_cycles,
            restructure_stats=restructure_stats,
            graph_records=graph_records,
        )
        report._bw_util = (
            min(1.0, hbm.stats.total_bytes / (cfg.hbm.peak_bytes_per_cycle * total_cycles))
            if total_cycles
            else 0.0
        )
        return report


@dataclass
class _Leaf:
    """One NA invocation: a (sub)graph in schedule order and its misses.

    ``key`` names the leaf within its dataset: relation, the frontend
    that restructured it (``None`` for a whole semantic graph) and its
    leaf index.
    """

    graph: SemanticGraph
    schedule: np.ndarray
    replay: TraceArtifact
    key: tuple
    missed: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))


def _plan_leaves(
    sg: SemanticGraph, result: RestructureResult | None, source: tuple | None
) -> list[_Leaf]:
    """The NA leaves of ``sg`` (restructured when ``result`` is given).

    Edgeless leaves access nothing and are left out.
    """
    relation = str(sg.relation)
    if result is None:
        if not sg.num_edges:
            return []
        return [_Leaf(sg, sg.active_dst(), sg.na_replay(), (relation, None, 0))]
    replays = result.leaf_replays or [None] * len(result.leaves())
    return [
        _Leaf(
            sub,
            schedule,
            replay if replay is not None else scheduled_na_replay(sub, schedule),
            (relation, source, i),
        )
        for i, ((sub, schedule), replay) in enumerate(zip(result.leaves(), replays))
        if sub.num_edges
    ]


def _lane_segments(
    ordered: list[SemanticGraph], lane_of: list[int], leaves: list[list[_Leaf]]
) -> list[list[_Leaf]]:
    """Each lane's NA leaves, cut where its buffer is flushed.

    A lane flushes before its first graph and whenever the source type
    changes, so between flushes its buffer is one LRU over the
    concatenated leaf traces.
    """
    segments: list[list[_Leaf]] = []
    open_segment: dict[int, list[_Leaf]] = {}
    src_type: dict[int, str] = {}
    for idx, sg in enumerate(ordered):
        lane = lane_of[idx]
        if src_type.get(lane) != sg.relation.src_type:
            src_type[lane] = sg.relation.src_type
            open_segment[lane] = []
            segments.append(open_segment[lane])
        open_segment[lane].extend(leaves[idx])
    return [segment for segment in segments if segment]


def _replay_segments(
    segments: list[list[_Leaf]],
    capacity_bytes: int,
    entry_bytes: int,
    memo: Callable | None,
    naive: bool,
) -> np.ndarray:
    """Replay every lane segment; fills each leaf's ``missed`` ids.

    ``memo`` is :meth:`DatasetArtifacts.derived` or ``None``; ``naive``
    chains the element-at-a-time :class:`FeatureBuffer` loop over each
    segment's leaves instead of :func:`_segment_hits`. Returns the DRAM
    fetch count of every fetched id.
    """
    capacity = FeatureBuffer(capacity_bytes, entry_bytes).capacity_entries
    for segment in segments:
        if naive:
            buffer = FeatureBuffer(capacity_bytes, entry_bytes)
            for leaf in segment:
                _, leaf.missed = buffer.access_many(
                    leaf.replay.trace, collect_misses=True, naive=True
                )
            continue
        hit = _segment_hits(segment, capacity, memo)
        offset = 0
        for leaf in segment:
            end = offset + leaf.replay.n
            leaf.missed = leaf.replay.trace[~hit[offset:end]]
            offset = end
    missed = [leaf.missed for segment in segments for leaf in segment]
    if not missed:
        return np.empty(0, dtype=np.int64)
    counts = np.bincount(np.concatenate(missed))
    return counts[counts > 0]


def _segment_hits(
    segment: list[_Leaf], capacity: int, memo: Callable | None
) -> np.ndarray:
    """Hit mask of one segment's concatenated traces, from an empty LRU.

    When the segment's distinct ids fit the capacity, only their first
    touches miss. Otherwise its composed stack distances decide; with
    ``memo`` each distinct multi-leaf segment is composed once.
    """
    replays = [leaf.replay for leaf in segment]
    if max(r.num_distinct for r in replays) <= capacity:
        firsts = np.concatenate([r.trace[r.first_pos] for r in replays])
        ids, first = np.unique(firsts, return_index=True)
        if len(ids) <= capacity:
            starts = np.cumsum([0] + [r.n for r in replays])
            positions = np.concatenate(
                [start + r.first_pos for start, r in zip(starts, replays)]
            )
            hit = np.ones(starts[-1], dtype=bool)
            hit[positions[first]] = False
            return hit
    if memo is not None and len(segment) > 1:
        key = ("na-segment", *(leaf.key for leaf in segment))
        distances = memo(key, lambda _graphs: compose_distances(replays))
    else:
        distances = compose_distances(replays)
    return distances < capacity
