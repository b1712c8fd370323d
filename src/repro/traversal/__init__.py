"""Shortest-path traversal substrate.

Everything the reverse k-ranks algorithms need from "Dijkstra's algorithm"
lives here:

* :class:`~repro.traversal.heap.AddressableHeap` — a binary min-heap with
  decrease-key, the priority queue ``Q`` of the paper's pseudo-code;
* :class:`~repro.traversal.arena.ScratchArena` — epoch-stamped reusable
  scratch memory (settled sets, dense bound lists) the engines
  thread through every query instead of reallocating per query;
* :mod:`~repro.traversal.csr_sds` — the CSR index-space SDS-tree +
  refinement pipeline, the one execution path behind
  :mod:`repro.core.framework`;
* :mod:`~repro.traversal.dijkstra` — full, bounded and *lazy* (incremental)
  single-source shortest path searches over any graph (with array
  specialisations in :mod:`~repro.traversal.csr_ops`);
* :mod:`~repro.traversal.knn` — top-k nearest nodes (graph k-NN);
* :mod:`~repro.traversal.rank` — the exact ``Rank(s, t)`` definition used as
  ground truth by the tests and the naive baseline.
"""

from repro.traversal.arena import EpochStamps, ScratchArena
from repro.traversal.heap import AddressableHeap
from repro.traversal.dijkstra import (
    DijkstraSearch,
    shortest_path_distances,
    shortest_path_tree,
    distance_between,
)
from repro.traversal.sssp import ShortestPathTree
from repro.traversal.knn import k_nearest_nodes
from repro.traversal.rank import exact_rank, rank_row, rank_stream, rank_matrix
from repro.traversal.csr_ops import (
    compact_distance_map,
    compact_exact_rank,
    compact_rank_stream,
    compact_shortest_path_tree,
)

__all__ = [
    "AddressableHeap",
    "EpochStamps",
    "ScratchArena",
    "DijkstraSearch",
    "ShortestPathTree",
    "shortest_path_distances",
    "shortest_path_tree",
    "distance_between",
    "k_nearest_nodes",
    "exact_rank",
    "rank_row",
    "rank_stream",
    "rank_matrix",
    "compact_distance_map",
    "compact_exact_rank",
    "compact_rank_stream",
    "compact_shortest_path_tree",
]
