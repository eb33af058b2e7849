"""GDR-HGNN frontend and its pipelined integration with HiHGNN.

The frontend restructures semantic graphs *on the fly*: while the
accelerator executes graph ``k``, the Decoupler/Recoupler work on graph
``k+1`` ("GDR-HGNN continuously receives and restructures the next
semantic graph", §4.3). Only the first graph's restructuring latency is
fully exposed; later frontend work hides behind accelerator execution
unless the frontend is slower.

:class:`GDRHGNNSystem` performs that overlap with an explicit
ready-time simulation: the accelerator may start graph ``i`` no earlier
than the frontend finishes it and no earlier than the owning lane is
free.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable

from repro.accelerator.config import HiHGNNConfig
from repro.accelerator.hihgnn import HiHGNNSimulator, SimulationReport
from repro.accelerator.scheduler import similarity_schedule
from repro.accelerator.stages import scheduled_na_replay
from repro.frontend.config import GDRConfig
from repro.frontend.decoupler import Decoupler, DecouplerReport
from repro.frontend.recoupler import Recoupler, RecouplerReport
from repro.graph.hetero import HeteroGraph
from repro.graph.semantic import SemanticGraph, build_semantic_graphs
from repro.models.base import ModelConfig
from repro.restructure.recouple import RestructureResult
from repro.restructure.restructure import restructure_tree

__all__ = ["FrontendReport", "GDRFrontend", "GDRHGNNSystem"]


def _fieldwise_sum(reports):
    """One report whose every counter is the sum over ``reports``."""
    first = reports[0]
    totals = {f.name: sum(getattr(r, f.name) for r in reports) for f in fields(first)}
    return replace(first, **totals)


@dataclass
class FrontendReport:
    """Combined Decoupler + Recoupler cost for one semantic graph."""

    relation: str
    decoupler: DecouplerReport
    recoupler: RecouplerReport

    @property
    def cycles(self) -> int:
        # Decoupling and recoupling of the *same* graph serialize
        # (recoupling needs the full candidate set).
        return self.decoupler.cycles + self.recoupler.cycles

    @property
    def dram_bytes_read(self) -> int:
        return self.decoupler.dram_bytes_read + self.recoupler.dram_bytes_read

    @property
    def dram_bytes_written(self) -> int:
        return self.recoupler.dram_bytes_written


#: Per semantic graph: its restructure and the frontend's cost for it.
#: Produced by :meth:`GDRFrontend.run_pass`.
FrontendPass = list[tuple[RestructureResult, FrontendReport]]


class GDRFrontend:
    """The complete frontend: decouple, then recouple, with cycle cost.

    Args:
        config: frontend microarchitecture parameters.
        backbone_strategy: passed to the Recoupler (``"konig"`` default).
        max_depth: recursive restructuring depth. The paper notes the
            method "can be applied to subgraphs to generate smaller
            sub-subgraphs"; each recursion re-runs both hardware units
            on the subgraphs, and all costs accumulate.
        min_edges: recursion cut-off.
        naive: run both hardware units on the original per-edge
            reference loops instead of the vectorized engines
            (bit-identical output).
    """

    def __init__(
        self,
        config: GDRConfig | None = None,
        *,
        backbone_strategy: str = "konig",
        max_depth: int = 0,
        min_edges: int = 64,
        community_budget: int = 256,
        naive: bool = False,
    ) -> None:
        self.config = config or GDRConfig()
        self.decoupler = Decoupler(self.config, naive=naive)
        self.recoupler = Recoupler(
            self.config, backbone_strategy, community_budget, naive=naive
        )
        self.max_depth = max_depth
        self.min_edges = min_edges

    @property
    def key(self) -> tuple:
        """Every parameter a restructure depends on (memo key)."""
        rec = self.recoupler
        return (
            self.config,
            rec.backbone_strategy,
            rec.community_budget,
            self.max_depth,
            self.min_edges,
            rec.naive,
        )

    def restructure(
        self, graph: SemanticGraph
    ) -> tuple[RestructureResult, FrontendReport]:
        """Restructure one semantic graph, reporting hardware cost.

        With ``max_depth > 0`` the report is the field-wise sum of the
        Decoupler and Recoupler reports of every restructured tree node.
        """
        reports: list[tuple[DecouplerReport, RecouplerReport]] = []

        def step(sg: SemanticGraph) -> RestructureResult:
            matching, dec_report = self.decoupler.run(sg)
            result, rec_report = self.recoupler.run(sg, matching)
            reports.append((dec_report, rec_report))
            return result

        result = restructure_tree(
            graph, step, max_depth=self.max_depth, min_edges=self.min_edges
        )
        dec, rec = zip(*reports)
        return result, FrontendReport(
            str(graph.relation), _fieldwise_sum(dec), _fieldwise_sum(rec)
        )

    def run_pass(self, semantic_graphs: list[SemanticGraph]) -> FrontendPass:
        """Restructure every graph and stage its leaves for replay.

        Each restructure carries the NA replay artifact of every leaf
        in its schedule order, stack distances included, so the runs
        that share the pass (every HGNN model) replay without
        regathering. Leaves then drop their CSR and CSC views, which
        only scheduling and the gather read.

        Within the pass each FIFO matching is computed once per
        transpose pair. The memo keys the graph the engine actually
        searches (its reverse when it has fewer destinations than
        sources): ``(num_src, num_dst)`` and the CSR ``indptr`` and
        ``indices``, compared exactly. A relation and its reverse hit
        the same entry; the square self-relation pair (``cites`` and
        its reverse) has distinct CSRs and is matched twice. The twin
        receives copies of the swapped arrays and counters, so no two
        results share an array. The memo ends with the pass.
        """
        self.decoupler.pass_matchings = {}
        try:
            computed = [self.restructure(sg) for sg in semantic_graphs]
        finally:
            self.decoupler.pass_matchings = None
        for result, _ in computed:
            leaves = result.leaves()
            result.leaf_replays = [
                scheduled_na_replay(sub, schedule) for sub, schedule in leaves
            ]
            for (sub, _), replay in zip(leaves, result.leaf_replays):
                replay.distances
                sub._csr = sub._csc = None
        return computed


class GDRHGNNSystem:
    """HiHGNN + GDR-HGNN with pipelined frontend/accelerator execution."""

    def __init__(
        self,
        accelerator_config: HiHGNNConfig | None = None,
        frontend_config: GDRConfig | None = None,
        model_config: ModelConfig | None = None,
        *,
        max_depth: int = 0,
        community_budget: int | None = None,
        naive: bool = False,
    ) -> None:
        self.accelerator = HiHGNNSimulator(accelerator_config, model_config)
        if community_budget is None:
            # The Recoupler's community size tracks the NA buffer: one
            # community's sources should occupy a fraction of the
            # source-feature capacity so several communities coexist.
            entries = (
                self.accelerator.config.lane_na_src_bytes
                // self.accelerator.model_config.feature_vector_bytes
            )
            community_budget = max(32, entries // 16)
        self.frontend = GDRFrontend(
            frontend_config,
            max_depth=max_depth,
            community_budget=community_budget,
            naive=naive,
        )

    def run(
        self,
        graph: HeteroGraph,
        model_name: str,
        *,
        semantic_graphs: list[SemanticGraph] | None = None,
        frontend_pass: FrontendPass | None = None,
        derived: Callable | None = None,
    ) -> SimulationReport:
        """Simulate the combined system on one dataset and model.

        ``frontend_pass`` holds ``self.frontend``'s restructure of each
        of ``semantic_graphs``, in the same order. It depends on no model,
        so callers may share one across models (as
        :meth:`DatasetArtifacts.frontend_pass` does); it is only read.
        When omitted, :meth:`GDRFrontend.run_pass` computes it here.
        ``derived`` is the dataset memo the accelerator shares its NA
        lane segments through (see :meth:`HiHGNNSimulator.run`).

        Returns a :class:`SimulationReport` whose ``total_cycles``
        includes exposed frontend latency, whose DRAM statistics merge
        frontend topology traffic with accelerator traffic, and whose
        ``frontend_cycles`` records the frontend's total busy time.
        """
        if semantic_graphs is None:
            semantic_graphs = build_semantic_graphs(graph)
        if frontend_pass is None:
            frontend_pass = self.frontend.run_pass(semantic_graphs)
        order = similarity_schedule(semantic_graphs)
        ordered = [semantic_graphs[i] for i in order]
        frontend_reports = [frontend_pass[i][1] for i in order]
        restructured = {
            str(semantic_graphs[i].relation): frontend_pass[i][0] for i in order
        }

        accel = self.accelerator.run(
            graph,
            model_name,
            restructured=restructured,
            restructured_key=self.frontend.key,
            derived=derived,
            use_similarity_schedule=False,
            semantic_graphs=ordered,
            platform_name="hihgnn+gdr",
        )

        # Ready-time pipeline: frontend finishes graphs back-to-back;
        # the accelerator starts each graph when both the frontend
        # output and the owning lane are available.
        num_lanes = self.accelerator.config.num_lanes
        lane_free = [0] * num_lanes
        frontend_clock = 0
        for record, freport in zip(accel.graph_records, frontend_reports):
            frontend_clock += freport.cycles
            lane = record["lane"]
            start = max(lane_free[lane], frontend_clock)
            lane_free[lane] = start + record["cycles"]
        pipelined_total = max(lane_free) if lane_free else 0

        frontend_cycles = sum(r.cycles for r in frontend_reports)
        frontend_read = sum(r.dram_bytes_read for r in frontend_reports)
        frontend_written = sum(r.dram_bytes_written for r in frontend_reports)

        accel.total_cycles = max(accel.total_cycles, pipelined_total)
        accel.frontend_cycles = frontend_cycles
        accel.dram.bytes_read += frontend_read
        accel.dram.bytes_written += frontend_written
        # Topology streams count as one access per super-row chunk.
        chunk = self.accelerator.config.hbm.row_bytes * (
            self.accelerator.config.hbm.num_channels
        )
        accel.dram.reads += -(-frontend_read // chunk) if frontend_read else 0
        accel.dram.writes += -(-frontend_written // chunk) if frontend_written else 0
        peak = self.accelerator.config.hbm.peak_bytes_per_cycle
        accel._bw_util = (
            min(1.0, accel.dram.total_bytes / (peak * accel.total_cycles))
            if accel.total_cycles
            else 0.0
        )
        return accel
