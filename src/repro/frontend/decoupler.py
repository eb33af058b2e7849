"""The Decoupler: Algorithm 1 in hardware (Fig. 5).

Topology streams in from HBM; the hash table allocates matching FIFOs
to destination vertices; visited/matching bitmaps filter edges; the
matching buffer absorbs FIFO spills. The cycle model is derived from
the algorithm's measured event counts:

- every scanned edge occupies the pipeline for
  ``1 / edges_per_cycle`` cycles (bitmap probes and FIFO pushes are
  pipelined with the scan),
- every hash-set conflict (more live destinations than ways in a set)
  stalls the pipeline for ``decouple_stall_penalty`` cycles while the
  spilled entry moves to the Matching Buffer,
- every augmenting-path flip costs its path length in FIFO pops
  (counted in the matching counters),
- the input topology is streamed once from DRAM (8 B per edge: two
  32-bit vertex ids).

Counter provenance (who increments what):

- ``edges_scanned``, ``fifo_pushes``, ``fifo_pops``, ``search_steps``
  and ``augmenting_paths`` come from the matching engine's
  :class:`~repro.restructure.matching.MatchingCounters` -- pushes
  count both ``Search_List`` entries and ``Matching_FIFO`` stagings,
  pops count search-list pops plus the stale-claim pops of each
  augmenting flip.
- ``hash_conflicts`` comes from replaying the destination stream
  through the set-associative FIFO-allocation table.
- ``cycles`` combines them: edge scans at ``edges_per_cycle``
  throughput, one cycle per FIFO pop (path flips serialize on pops),
  ``decouple_stall_penalty`` cycles per hash conflict, and one
  bookkeeping cycle per search step.

By default both the matching and the conflict replay run on the
vectorized engines (:func:`repro.restructure.matching_vec.maximum_matching_vec`,
:func:`repro.frontend.hashtable.count_fifo_conflicts`); ``naive=True``
selects the references: the per-edge matching loop
(:func:`repro.restructure.matching.maximum_matching_fifo`) and the
scalar :meth:`~repro.frontend.hashtable.HashTable.lookup` /
:meth:`~repro.frontend.hashtable.HashTable.insert` loop over the
destination stream. The two paths are bit-identical -- same matching,
same counters, same report -- which the differential suite in
``tests/restructure/test_matching_vec.py`` locks in across the
scenario catalog. The vectorized matching batches only the greedy
pass; its augmenting-path search is the scalar loop on plain lists.

During a frontend pass (:meth:`repro.frontend.gdr.GDRFrontend.run_pass`)
a graph whose oriented search input -- the graph itself, or its
reverse when it has fewer destinations than sources -- equals one
already matched reuses that matching (as copies) instead of searching
again. A relation and its reverse are such twins: the matching is
orientation-symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.frontend.config import GDRConfig
from repro.frontend.hashtable import HashTable, count_fifo_conflicts
from repro.graph.semantic import SemanticGraph
from repro.restructure.matching import (
    MatchingResult,
    _swap_orientation,
    maximum_matching_fifo,
)
from repro.restructure.matching_vec import maximum_matching_vec

__all__ = ["DecouplerReport", "Decoupler"]

EDGE_BYTES = 8  # two 32-bit vertex ids per edge


@dataclass
class DecouplerReport:
    """Cycle and traffic cost of decoupling one semantic graph."""

    cycles: int
    dram_bytes_read: int
    fifo_pushes: int
    fifo_pops: int
    hash_conflicts: int
    augmenting_paths: int

    @property
    def pushes_per_cycle_achieved(self) -> float:
        """Sustained FIFO-push throughput (pushes per cycle)."""
        if self.cycles == 0:
            return 0.0
        return self.fifo_pushes / self.cycles


class Decoupler:
    """Hardware model wrapping the Algorithm 1 dataflow.

    Args:
        config: frontend microarchitecture parameters.
        naive: run the original per-edge matching loop and hash-table
            replay instead of the vectorized engines (bit-identical
            output, reference path).
    """

    def __init__(self, config: GDRConfig | None = None, *, naive: bool = False) -> None:
        self.config = config or GDRConfig()
        self.naive = naive
        #: Matchings of the running frontend pass, bucketed by oriented
        #: shape; ``None`` outside a pass (see :meth:`_match`).
        self.pass_matchings: dict | None = None

    def _match(self, graph: SemanticGraph) -> MatchingResult:
        """The FIFO matching of ``graph``, shared with its twin in a pass.

        Two graphs share when the engine would search identical input:
        equal shape and equal CSR arrays of the oriented graph. A
        transpose pair's oriented CSRs are one object (a reverse
        resolves its adjacency through its twin), so identical arrays
        match without the element-by-element comparison.
        """
        engine = maximum_matching_fifo if self.naive else maximum_matching_vec
        memo = self.pass_matchings
        if memo is None:
            return engine(graph)
        flipped = graph.num_dst < graph.num_src
        oriented = graph.reversed() if flipped else graph
        csr = oriented.csr
        bucket = memo.setdefault(
            (oriented.num_src, oriented.num_dst, oriented.num_edges), []
        )
        for indptr, indices, known in bucket:
            if (indptr is csr.indptr and indices is csr.indices) or (
                np.array_equal(indptr, csr.indptr)
                and np.array_equal(indices, csr.indices)
            ):
                result = MatchingResult(
                    match_src=known.match_src.copy(),
                    match_dst=known.match_dst.copy(),
                    counters=replace(known.counters),
                )
                break
        else:
            result = engine(oriented)
            bucket.append((csr.indptr, csr.indices, result))
        return _swap_orientation(result) if flipped else result

    def run(self, graph: SemanticGraph) -> tuple[MatchingResult, DecouplerReport]:
        """Decouple ``graph``; returns the matching and its cost.

        The functional result comes from Algorithm 1's FIFO formulation
        (vectorized by default, scalar under ``naive=True``); the
        hardware cost is derived from its event counters plus a
        hash-conflict replay over the destination stream.
        """
        cfg = self.config
        matching = self._match(graph)
        counters = matching.counters

        # Replay FIFO allocation through the set-associative hash table
        # to count conflicts: each distinct destination in the edge
        # stream claims a FIFO slot while live.
        if self.naive:
            table = HashTable(cfg.hash_sets, cfg.hash_ways)
            for k in graph.dst.tolist():
                if table.lookup(k) is None:
                    table.insert(k)
            conflicts = table.stats.conflicts
        else:
            conflicts = count_fifo_conflicts(
                graph.dst, cfg.hash_sets, cfg.hash_ways
            )

        scan_cycles = -(-counters.edges_scanned // cfg.edges_per_cycle)
        pop_cycles = counters.fifo_pops  # path flips serialize on pops
        stall_cycles = conflicts * cfg.decouple_stall_penalty
        # Per-vertex search bookkeeping (Search_List management).
        search_cycles = counters.search_steps
        cycles = scan_cycles + pop_cycles + stall_cycles + search_cycles

        report = DecouplerReport(
            cycles=cycles,
            dram_bytes_read=graph.num_edges * EDGE_BYTES,
            fifo_pushes=counters.fifo_pushes,
            fifo_pops=counters.fifo_pops,
            hash_conflicts=conflicts,
            augmenting_paths=counters.augmenting_paths,
        )
        return matching, report
