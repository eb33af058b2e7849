"""The Recoupler: Algorithm 2 in hardware (Fig. 6).

The Candidate Buffer feeds backbone candidates to the Backbone
Searcher, which reads each candidate's adjacency from the Src/Dst
adjacency buffers, checks neighbors against the Matching Bitmap, and
routes vertices into the four classification FIFOs
(``Src_in``/``Src_out``/``Dst_in``/``Dst_out``). The Graph Generator
drains the FIFOs into the three restructured subgraphs, which stream
out to the accelerator.

Cycle model:

- the Backbone Searcher processes ``recouple_ports`` candidate
  neighbors per cycle (adjacency reads pipeline with bitmap checks),
- the Graph Generator emits one edge per cycle,
- adjacency lists not resident in the 320 KB adjacency buffer stream
  from DRAM (8 B per edge).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.frontend.config import GDRConfig
from repro.graph.semantic import SemanticGraph
from repro.restructure.backbone import BackbonePartition, select_backbone
from repro.restructure.matching import MatchingResult
from repro.restructure.recouple import RestructureResult, recouple

__all__ = ["RecouplerReport", "Recoupler"]

EDGE_BYTES = 8


@dataclass
class RecouplerReport:
    """Cycle and traffic cost of recoupling one semantic graph."""

    cycles: int
    dram_bytes_read: int
    dram_bytes_written: int
    candidates_processed: int
    edges_emitted: int


class Recoupler:
    """Hardware model of backbone selection + subgraph generation.

    ``naive=True`` selects the scalar backbone reference of
    :func:`~repro.restructure.backbone.select_backbone`; the community
    schedule has one walk either way.
    """

    def __init__(
        self,
        config: GDRConfig | None = None,
        backbone_strategy: str = "konig",
        community_budget: int = 256,
        *,
        naive: bool = False,
    ) -> None:
        self.config = config or GDRConfig()
        self.backbone_strategy = backbone_strategy
        self.community_budget = community_budget
        self.naive = naive

    def run(
        self, graph: SemanticGraph, matching: MatchingResult
    ) -> tuple[RestructureResult, RecouplerReport]:
        """Recouple ``graph`` given its decoupling result."""
        cfg = self.config
        partition: BackbonePartition = select_backbone(
            graph, matching, self.backbone_strategy, naive=self.naive
        )
        result = recouple(
            graph, matching, partition, community_budget=self.community_budget
        )

        candidates = matching.size * 2  # matched sources and destinations
        # Backbone search touches each candidate's adjacency once.
        matched_src = matching.matched_src()
        matched_dst = matching.matched_dst()
        src_deg = graph.src_degrees()
        # Counted from the edge list: the degrees alone do not justify
        # building the parent's destination-major adjacency.
        dst_deg = np.bincount(graph.dst, minlength=graph.num_dst)
        neighbor_reads = int(src_deg[matched_src].sum() + dst_deg[matched_dst].sum())
        search_cycles = -(-neighbor_reads // cfg.recouple_ports)

        edges_emitted = sum(sub.num_edges for sub in result.subgraphs)
        generate_cycles = edges_emitted  # one edge out per cycle

        # Adjacency beyond the on-chip buffer streams from DRAM.
        adj_bytes = graph.num_edges * EDGE_BYTES
        resident = min(adj_bytes, cfg.adj_buffer_bytes)
        dram_read = max(0, adj_bytes - resident)
        # Restructured topology streams to the accelerator through DRAM
        # only when the direct FIFO channel back-pressures; the common
        # case forwards on-chip, so only the emitted schedule metadata
        # (one id per scheduled destination) is written back.
        dram_written = sum(len(s) for s in result.dst_schedules) * 4

        report = RecouplerReport(
            cycles=search_cycles + generate_cycles,
            dram_bytes_read=dram_read,
            dram_bytes_written=dram_written,
            candidates_processed=candidates,
            edges_emitted=edges_emitted,
        )
        return result, report
